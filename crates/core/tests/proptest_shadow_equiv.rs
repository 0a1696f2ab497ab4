//! Property-based equivalence of the bit-plane shadow PM against a
//! reference per-byte model.
//!
//! The production [`ShadowPm`] stores each 64-byte line as bit-planes (one
//! `u64` per fact) plus the per-byte values a bit cannot hold, behind
//! `Arc`s so checkpoints are O(1) copy-on-write clones. This test pins its
//! observable behavior to a deliberately naive per-byte `HashMap` model —
//! one struct of flags per touched byte, the seed representation — under
//! arbitrary operation sequences: unaligned multi-line writes, NT writes,
//! flushes and fences on two threads, transactions with `TX_ADD` of
//! tracked and untracked bytes, allocation and free, and commit variables
//! with and without explicit ranges.
//!
//! Observed are `persist_state`, `is_range_persisted` and `timestamp`, and
//! what a post-failure run reports: a 1-byte checked read of every pool
//! byte must yield exactly the finding kind and writer the model predicts,
//! under ADR, eADR and CXL GPF with reorder windows 1–8. Checkpoints taken
//! mid-sequence are held alive across later mutations and re-verified at
//! the end, so copy-on-write isolation is exercised under the same
//! arbitrary traces.
//!
//! Writers name one file at two addresses with equal contents. The shadow
//! keeps them as two writers, and their records must hash as one: the
//! fingerprint of every run equals the one of the same run with a single
//! address.

use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

use proptest::prelude::*;

use pmem::PersistDomain;
use xfdetector::{BugKind, DetectionReport, FailurePoint, PersistState, ShadowPm};
use xftrace::{FenceKind, FlushKind, Op, SourceLoc, Stage, TraceEntry};

const BASE: u64 = 0x1000;
const LINE: u64 = 64;
const LINES: u64 = 8;
const POOL: u64 = LINES * LINE;

/// Commit variables live at one of a few fixed 8-byte slots, so commit
/// ranges find a registered variable and writes move variables often.
const VAR_SLOTS: u64 = 4;
const VAR_STRIDE: u64 = POOL / VAR_SLOTS;

/// The writers' file name, at its literal's address or, with `copy`, at a
/// second address holding the same contents.
fn file(copy: bool) -> &'static str {
    static COPY: OnceLock<&'static str> = OnceLock::new();
    if copy {
        COPY.get_or_init(|| Box::leak(String::from("p.rs").into_boxed_str()))
    } else {
        "p.rs"
    }
}

/// The reference model's state of one tracked byte.
#[derive(Debug, Clone, Copy)]
struct RefByte {
    persist: PersistState,
    written: bool,
    allocated: bool,
    zeroed_alloc: bool,
    tx_protected: bool,
    unprotected_tx_write: bool,
    xthread: bool,
    writer_internal: bool,
    tlast: u32,
    tpersist: u32,
    /// Source line of the last writer (or of the allocation or `TX_ADD`).
    writer: u32,
    writer_tid: u32,
    flusher_tid: u32,
}

impl RefByte {
    /// An untracked byte that starts being tracked at epoch `ts` by the
    /// entry at source line `writer`.
    fn fresh(ts: u32, writer: u32) -> Self {
        RefByte {
            persist: PersistState::Unmodified,
            written: false,
            allocated: false,
            zeroed_alloc: false,
            tx_protected: false,
            unprotected_tx_write: false,
            xthread: false,
            writer_internal: false,
            tlast: ts,
            tpersist: 0,
            writer,
            writer_tid: 0,
            flusher_tid: 0,
        }
    }
}

/// A registered commit variable (§3.2).
#[derive(Debug, Clone)]
struct RefVar {
    addr: u64,
    ranges: Vec<(u64, u64)>,
    last_commit: Option<u32>,
    prelast_commit: Option<u32>,
    last_writer_tid: u32,
}

impl RefVar {
    fn covers_own(&self, b: u64) -> bool {
        (self.addr..self.addr + 8).contains(&b)
    }
}

/// The seed engine's representation: one map entry per touched byte.
#[derive(Debug, Clone)]
struct RefModel {
    domain: PersistDomain,
    bytes: HashMap<u64, RefByte>,
    pending: HashSet<u64>,
    ts: u32,
    /// The open transaction's `TX_ADD`ed and allocated bytes.
    tx: Option<(HashSet<u64>, HashSet<u64>)>,
    vars: Vec<RefVar>,
}

impl RefModel {
    fn new(domain: PersistDomain) -> Self {
        RefModel {
            domain,
            bytes: HashMap::new(),
            pending: HashSet::new(),
            ts: 0,
            tx: None,
            vars: Vec::new(),
        }
    }

    /// The bytes of the lines covering `[addr, addr + size)`.
    fn line_bytes(addr: u64, size: u64) -> impl Iterator<Item = u64> {
        (addr / LINE * LINE)..((addr + size - 1) / LINE + 1) * LINE
    }

    /// Moves the `Modified` bytes of `range` to `WritebackPending`, issued
    /// by thread `tid`.
    fn write_back(&mut self, range: impl Iterator<Item = u64>, tid: u32) {
        for b in range {
            if let Some(st) = self.bytes.get_mut(&b) {
                if st.persist == PersistState::Modified {
                    st.persist = PersistState::WritebackPending;
                    st.flusher_tid = tid;
                    self.pending.insert(b);
                }
            }
        }
    }

    fn apply(&mut self, e: &TraceEntry) {
        let (tid, line) = (e.tid, e.loc.line);
        match e.op {
            Op::Write { addr, size } | Op::NtWrite { addr, size } => {
                let nt = matches!(e.op, Op::NtWrite { .. });
                let end = addr + u64::from(size);
                for v in &mut self.vars {
                    if addr < v.addr + 8 && end > v.addr {
                        v.prelast_commit = v.last_commit;
                        v.last_commit = Some(self.ts);
                        v.last_writer_tid = tid;
                    }
                }
                let protects =
                    |tx: &(HashSet<u64>, HashSet<u64>), b| tx.0.contains(&b) || tx.1.contains(&b);
                let whole = self
                    .tx
                    .as_ref()
                    .is_some_and(|tx| (addr..end).all(|b| protects(tx, b)));
                for b in addr..end {
                    let protected = whole || self.tx.as_ref().is_some_and(|tx| protects(tx, b));
                    let in_tx = self.tx.is_some();
                    let st = self.bytes.entry(b).or_insert_with(|| RefByte::fresh(0, 0));
                    st.persist = if nt {
                        PersistState::WritebackPending
                    } else {
                        PersistState::Modified
                    };
                    st.written = true;
                    st.tlast = self.ts;
                    st.writer = line;
                    st.writer_tid = tid;
                    st.xthread = false;
                    st.writer_internal = e.internal;
                    if nt {
                        st.flusher_tid = tid;
                        self.pending.insert(b);
                    } else {
                        self.pending.remove(&b);
                    }
                    st.tx_protected = in_tx && protected;
                    st.unprotected_tx_write = in_tx && !protected;
                }
                if nt {
                    // NT-store snoop: modified bytes anywhere in the covered
                    // lines become writeback-pending too.
                    self.write_back(Self::line_bytes(addr, u64::from(size)), tid);
                }
            }
            Op::Flush { addr, .. } => self.write_back(Self::line_bytes(addr, 1), tid),
            Op::Fence { .. } => {
                for b in self.pending.clone() {
                    let st = self.bytes.get_mut(&b).expect("pending bytes are tracked");
                    if st.flusher_tid == tid {
                        st.persist = PersistState::Persisted;
                        st.tpersist = self.ts;
                        self.pending.remove(&b);
                    } else {
                        st.xthread = true;
                    }
                }
                self.ts += 1;
            }
            Op::TxBegin => self.tx = Some((HashSet::new(), HashSet::new())),
            Op::TxCommit | Op::TxAbort => self.tx = None,
            Op::TxAdd { addr, size } => {
                let Some((added, _)) = self.tx.as_mut() else {
                    return;
                };
                for b in addr..addr + u64::from(size) {
                    added.insert(b);
                    let st = self
                        .bytes
                        .entry(b)
                        .or_insert_with(|| RefByte::fresh(self.ts, line));
                    if !st.unprotected_tx_write {
                        st.tx_protected = true;
                    }
                }
            }
            Op::Alloc { addr, size, zeroed } => {
                for b in addr..addr + u64::from(size) {
                    let mut st = RefByte::fresh(self.ts, line);
                    st.allocated = true;
                    st.zeroed_alloc = zeroed;
                    if zeroed {
                        st.persist = PersistState::Persisted;
                    }
                    self.bytes.insert(b, st);
                    self.pending.remove(&b);
                    if let Some((_, allocs)) = self.tx.as_mut() {
                        allocs.insert(b);
                    }
                }
            }
            Op::Free { addr, size } => {
                for b in addr..addr + u64::from(size) {
                    self.bytes.remove(&b);
                    self.pending.remove(&b);
                }
            }
            Op::RegisterCommitVar { addr, .. } => {
                if !self.vars.iter().any(|v| v.addr == addr) {
                    self.vars.push(RefVar {
                        addr,
                        ranges: Vec::new(),
                        last_commit: None,
                        prelast_commit: None,
                        last_writer_tid: 0,
                    });
                }
            }
            Op::RegisterCommitRange {
                var_addr,
                addr,
                size,
            } => {
                if let Some(v) = self.vars.iter_mut().find(|v| v.addr == var_addr) {
                    v.ranges.push((addr, u64::from(size)));
                }
            }
            Op::Read { .. } => {}
        }
    }

    fn persist_state(&self, b: u64) -> PersistState {
        self.bytes
            .get(&b)
            .map_or(PersistState::Unmodified, |st| st.persist)
    }

    /// The variable governing `b`: an explicit range wins, else the sole
    /// registered variable when it is range-less.
    fn governing(&self, b: u64) -> Option<&RefVar> {
        if let Some(v) = self
            .vars
            .iter()
            .find(|v| v.ranges.iter().any(|&(a, s)| (a..a + s).contains(&b)))
        {
            return Some(v);
        }
        match self.vars.as_slice() {
            [only] if only.ranges.is_empty() => Some(only),
            _ => None,
        }
    }

    /// What a 1-byte checked post-failure read of `b` reports: the finding
    /// kind and the writer's source line, or `None`.
    fn read_finding(&self, b: u64) -> Option<(BugKind, u32)> {
        let st = self.bytes.get(&b)?;
        if self.vars.iter().any(|v| v.covers_own(b)) {
            return None; // reads of commit variables are benign
        }
        if !st.written {
            return (st.allocated && !st.zeroed_alloc)
                .then_some((BugKind::UninitializedRace, st.writer));
        }
        if st.tx_protected {
            return None;
        }
        let var = self.governing(b);
        // Equation 3: written strictly between the pre-last and the last
        // commit write.
        let consistent = var.map(|v| match v.last_commit {
            None => false,
            Some(last) => st.tlast < last && v.prelast_commit.is_none_or(|p| st.tlast > p),
        });
        if consistent == Some(true) {
            return None;
        }
        let race = if st.xthread {
            BugKind::CrossThreadRace
        } else {
            BugKind::CrossFailureRace
        };
        let persisted = st.persist == PersistState::Persisted;
        if !persisted && self.domain != PersistDomain::Eadr {
            return Some((race, st.writer));
        }
        if let PersistDomain::CxlGpf { reorder_window } = self.domain {
            let in_window = (self.ts.wrapping_sub(st.tpersist) as usize) <= reorder_window;
            if persisted && !st.writer_internal && in_window {
                return Some((race, st.writer));
            }
        }
        if consistent == Some(false) || st.unprotected_tx_write {
            let kind = if var.is_some_and(|v| v.last_writer_tid != st.writer_tid) {
                BugKind::CrossThreadSemantic
            } else {
                BugKind::CrossFailureSemantic
            };
            return Some((kind, st.writer));
        }
        None
    }
}

#[derive(Debug, Clone)]
enum Step {
    Write {
        off: u64,
        size: u32,
        tid: u32,
        internal: bool,
    },
    NtWrite {
        off: u64,
        size: u32,
        tid: u32,
    },
    Flush {
        off: u64,
        tid: u32,
    },
    Fence {
        tid: u32,
    },
    TxBegin,
    TxAdd {
        off: u64,
        size: u32,
    },
    TxCommit,
    Alloc {
        off: u64,
        size: u32,
        zeroed: bool,
    },
    Free {
        off: u64,
        size: u32,
    },
    RegisterVar {
        slot: u64,
    },
    RegisterRange {
        slot: u64,
        off: u64,
        size: u32,
    },
}

/// A step and whether its writer names the file's second address.
type Issued = (Step, bool);

impl Step {
    fn entry(&self, line: u32, copy: bool) -> TraceEntry {
        let (op, tid, internal) = match *self {
            Step::Write {
                off,
                size,
                tid,
                internal,
            } => (
                Op::Write {
                    addr: BASE + off,
                    size,
                },
                tid,
                internal,
            ),
            Step::NtWrite { off, size, tid } => (
                Op::NtWrite {
                    addr: BASE + off,
                    size,
                },
                tid,
                false,
            ),
            Step::Flush { off, tid } => (
                Op::Flush {
                    addr: BASE + off,
                    kind: FlushKind::Clwb,
                },
                tid,
                false,
            ),
            Step::Fence { tid } => (
                Op::Fence {
                    kind: FenceKind::Sfence,
                },
                tid,
                false,
            ),
            Step::TxBegin => (Op::TxBegin, 0, false),
            Step::TxAdd { off, size } => (
                Op::TxAdd {
                    addr: BASE + off,
                    size,
                },
                0,
                false,
            ),
            Step::TxCommit => (Op::TxCommit, 0, false),
            Step::Alloc { off, size, zeroed } => (
                Op::Alloc {
                    addr: BASE + off,
                    size,
                    zeroed,
                },
                0,
                false,
            ),
            Step::Free { off, size } => (
                Op::Free {
                    addr: BASE + off,
                    size,
                },
                0,
                false,
            ),
            Step::RegisterVar { slot } => (
                Op::RegisterCommitVar {
                    addr: BASE + slot * VAR_STRIDE,
                    size: 8,
                },
                0,
                false,
            ),
            Step::RegisterRange { slot, off, size } => (
                Op::RegisterCommitRange {
                    var_addr: BASE + slot * VAR_STRIDE,
                    addr: BASE + off,
                    size,
                },
                0,
                false,
            ),
        };
        TraceEntry::new(
            op,
            SourceLoc {
                file: file(copy),
                line,
            },
            Stage::Pre,
            internal,
            true,
        )
        .with_tid(tid)
    }
}

/// Offsets and sizes deliberately straddle line boundaries (size up to
/// 96 > 64) and stay inside the pool.
fn step_strategy() -> impl Strategy<Value = Step> {
    let span = (0..POOL - 96, 1..96u32);
    let tid = 0..2u32;
    prop_oneof![
        6 => (span.clone(), tid.clone(), prop_oneof![5 => Just(false), 1 => Just(true)])
            .prop_map(|((off, size), tid, internal)| Step::Write { off, size, tid, internal }),
        // Single bytes: a lone byte with finding potential among clean ones.
        2 => (0..POOL, tid.clone())
            .prop_map(|(off, tid)| Step::Write { off, size: 1, tid, internal: false }),
        2 => (span.clone(), tid.clone())
            .prop_map(|((off, size), tid)| Step::NtWrite { off, size, tid }),
        4 => (0..POOL, tid.clone()).prop_map(|(off, tid)| Step::Flush { off, tid }),
        3 => tid.prop_map(|tid| Step::Fence { tid }),
        1 => Just(Step::TxBegin),
        2 => span.clone().prop_map(|(off, size)| Step::TxAdd { off, size }),
        1 => Just(Step::TxCommit),
        2 => (span.clone(), any::<bool>())
            .prop_map(|((off, size), zeroed)| Step::Alloc { off, size, zeroed }),
        1 => span.clone().prop_map(|(off, size)| Step::Free { off, size }),
        1 => (0..VAR_SLOTS).prop_map(|slot| Step::RegisterVar { slot }),
        1 => (0..VAR_SLOTS, span)
            .prop_map(|(slot, (off, size))| Step::RegisterRange { slot, off, size }),
    ]
}

fn issued_strategy() -> impl Strategy<Value = Issued> {
    (
        step_strategy(),
        prop_oneof![2 => Just(false), 1 => Just(true)],
    )
}

fn domain_strategy() -> impl Strategy<Value = PersistDomain> {
    prop_oneof![
        Just(PersistDomain::Adr),
        Just(PersistDomain::Eadr),
        (1..=8usize).prop_map(|reorder_window| PersistDomain::CxlGpf { reorder_window }),
    ]
}

/// What the shadow reports for a 1-byte checked read of every pool byte,
/// each read from its own source line so no finding deduplicates another.
fn read_findings(shadow: &ShadowPm) -> Vec<Option<(BugKind, u32)>> {
    let fp = FailurePoint {
        id: 0,
        loc: SourceLoc::synthetic("<fp>"),
    };
    let mut checker = shadow.begin_post(true);
    (BASE..BASE + POOL)
        .map(|b| {
            let read = TraceEntry::new(
                Op::Read { addr: b, size: 1 },
                SourceLoc {
                    file: "post.rs",
                    line: (b - BASE) as u32,
                },
                Stage::Post,
                false,
                true,
            );
            let mut out = DetectionReport::new();
            checker.apply_post(&read, fp, &mut out);
            match out.findings() {
                [] => None,
                [f] => {
                    assert_eq!((f.addr, f.size), (b, 1), "a finding names the byte read");
                    let writer = f.writer.expect("read findings name a writer");
                    assert_eq!(writer.file, "p.rs");
                    Some((f.kind, writer.line))
                }
                more => panic!("one finding per read access, got {more:?}"),
            }
        })
        .collect()
}

fn assert_equivalent(shadow: &ShadowPm, model: &RefModel, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(shadow.timestamp(), model.ts, "timestamp ({})", what);
    for b in BASE..BASE + POOL {
        prop_assert_eq!(
            shadow.persist_state(b),
            model.persist_state(b),
            "byte {:#x} ({})",
            b,
            what
        );
    }
    // Range queries derive from per-byte state; sample line-sized and
    // line-straddling windows.
    for start in (0..POOL - LINE).step_by(24) {
        let expect = (BASE + start..BASE + start + LINE).all(|b| {
            matches!(
                model.persist_state(b),
                PersistState::Persisted | PersistState::Unmodified
            )
        });
        prop_assert_eq!(
            shadow.is_range_persisted(BASE + start, LINE),
            expect,
            "range at +{} ({})",
            start,
            what
        );
    }
    for (b, got) in (BASE..).zip(read_findings(shadow)) {
        prop_assert_eq!(
            got,
            model.read_finding(b),
            "post-failure read of {:#x} under {:?} ({})",
            b,
            model.domain,
            what
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The bit-plane shadow is observationally equivalent to the per-byte
    /// reference model, and checkpoints held across later mutations stay
    /// frozen at their capture point (copy-on-write isolation). A twin
    /// replaying every writer at the file's first address keeps the same
    /// fingerprint throughout.
    #[test]
    fn line_slab_shadow_equals_per_byte_model(
        steps in prop::collection::vec(issued_strategy(), 0..200),
        checkpoint_every in 13..40usize,
        domain in domain_strategy(),
    ) {
        let mut shadow = ShadowPm::with_domain(domain);
        let mut one_address = ShadowPm::with_domain(domain);
        shadow.enable_fingerprinting();
        one_address.enable_fingerprinting();
        let mut model = RefModel::new(domain);
        let mut report = DetectionReport::new();
        let mut checkpoints: Vec<(usize, ShadowPm, RefModel)> = Vec::new();

        for (i, (s, copy)) in steps.iter().enumerate() {
            if i % checkpoint_every == checkpoint_every - 1 {
                // Held alive across the rest of the run, like in-flight
                // parallel jobs.
                checkpoints.push((i, shadow.clone(), model.clone()));
                prop_assert_eq!(
                    shadow.persistence_fingerprint(),
                    one_address.persistence_fingerprint(),
                    "fingerprint before step {}", i
                );
            }
            let e = s.entry(i as u32 + 1, *copy);
            shadow.apply_pre(&e, &mut report);
            one_address.apply_pre(&s.entry(i as u32 + 1, false), &mut report);
            model.apply(&e);
        }

        let fingerprint = shadow.persistence_fingerprint();
        prop_assert_eq!(fingerprint, one_address.persistence_fingerprint());
        prop_assert_eq!(fingerprint, shadow.fingerprint_from_scratch());
        assert_equivalent(&shadow, &model, "live shadow")?;
        for (i, cp_shadow, cp_model) in &checkpoints {
            assert_equivalent(cp_shadow, cp_model, &format!("checkpoint@{i}"))?;
        }
        // The live shadow pays for copy-on-write faults; a checkpoint's
        // counter stays frozen at its capture value.
        for (_, cp, _) in &checkpoints {
            prop_assert!(cp.bytes_cloned() <= shadow.bytes_cloned());
        }
    }

    /// Deep-copy equivalence of the checkpoint itself: replaying further
    /// entries on the live shadow and on an eagerly isolated copy diverges
    /// nowhere.
    #[test]
    fn checkpoint_then_diverge(
        prefix in prop::collection::vec(issued_strategy(), 0..60),
        suffix in prop::collection::vec(issued_strategy(), 1..60),
        domain in domain_strategy(),
    ) {
        let mut shadow = ShadowPm::with_domain(domain);
        let mut model = RefModel::new(domain);
        let mut report = DetectionReport::new();
        for (i, (s, copy)) in prefix.iter().enumerate() {
            let e = s.entry(i as u32 + 1, *copy);
            shadow.apply_pre(&e, &mut report);
            model.apply(&e);
        }
        let frozen = shadow.clone();
        let frozen_model = model.clone();
        for (i, (s, copy)) in suffix.iter().enumerate() {
            let e = s.entry(1000 + i as u32, *copy);
            shadow.apply_pre(&e, &mut report);
            model.apply(&e);
        }
        assert_equivalent(&shadow, &model, "diverged live")?;
        assert_equivalent(&frozen, &frozen_model, "frozen checkpoint")?;
    }
}

/// The generated programs reach every finding kind the model predicts and
/// clean bytes besides: an oracle that only ever saw one verdict would
/// prove little.
#[test]
fn the_generated_programs_reach_every_read_finding_kind() {
    use proptest::test_runner::TestRng;
    let steps = prop::collection::vec(issued_strategy(), 0..200);
    let mut seen: HashMap<Option<BugKind>, usize> = HashMap::new();
    for case in 0..256 {
        let mut rng = TestRng::for_case("shadow-equiv-coverage", case);
        let domain = domain_strategy().generate(&mut rng);
        let mut model = RefModel::new(domain);
        for (i, (s, copy)) in steps.generate(&mut rng).iter().enumerate() {
            model.apply(&s.entry(i as u32 + 1, *copy));
        }
        for b in BASE..BASE + POOL {
            *seen
                .entry(model.read_finding(b).map(|(k, _)| k))
                .or_default() += 1;
        }
    }
    for kind in [
        None,
        Some(BugKind::UninitializedRace),
        Some(BugKind::CrossFailureRace),
        Some(BugKind::CrossThreadRace),
        Some(BugKind::CrossFailureSemantic),
        Some(BugKind::CrossThreadSemantic),
    ] {
        assert!(
            seen.get(&kind).is_some_and(|&n| n > 20),
            "{kind:?}: {seen:?}"
        );
    }
}
