//! The reference oracle: a naive per-byte interpreter of the persistence
//! FSM.
//!
//! This is a from-scratch reimplementation of the paper's detection
//! semantics (Figures 9–11, Equations 1–3) over a recorded run, sharing
//! *no* code with the production shadow PM: bytes live in a plain
//! `HashMap<u64, OByte>` (no line slabs, no pending bitmasks, no
//! copy-on-write checkpoints — checkpoints are full deep clones), the
//! `WritebackPending` set is recomputed by scanning every byte at each
//! fence, and `TX_ADD` ranges are a flat `Vec` with linear scans. Slow and
//! simple on purpose: the differential driver cross-checks the optimized
//! engines against this ground truth, so any divergence localizes a bug in
//! one of the optimization layers.

use std::collections::{HashMap, HashSet};

use pmem::PersistDomain;
use xfdetector::offline::RecordedRun;
use xfdetector::{BugKind, DetectionReport, FailurePoint, Finding};
use xftrace::{Op, SourceLoc, TraceEntry};

const LINE: u64 = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Persist {
    Unmodified,
    Modified,
    WritebackPending,
    Persisted,
}

#[derive(Debug, Clone, Copy)]
struct OByte {
    persist: Persist,
    written: bool,
    allocated: bool,
    zeroed_alloc: bool,
    tx_protected: bool,
    unprotected_tx_write: bool,
    tlast: u32,
    /// Fence timestamp at which the byte reached `Persisted` (CXL aging).
    tpersist: u32,
    /// Last writer was library-internal code (exempt from the CXL
    /// reorder-window check, like the shadow PM's trusted-internals rule).
    writer_internal: bool,
    writer: SourceLoc,
}

impl OByte {
    fn untracked() -> Self {
        OByte {
            persist: Persist::Unmodified,
            written: false,
            allocated: false,
            zeroed_alloc: false,
            tx_protected: false,
            unprotected_tx_write: false,
            tlast: 0,
            tpersist: 0,
            writer_internal: false,
            writer: SourceLoc::synthetic("<untracked>"),
        }
    }
}

#[derive(Debug, Clone)]
struct OVar {
    addr: u64,
    size: u32,
    ranges: Vec<(u64, u64)>,
    last_commit: Option<u32>,
    prelast_commit: Option<u32>,
}

impl OVar {
    fn covers_own(&self, b: u64) -> bool {
        b >= self.addr && b < self.addr + u64::from(self.size)
    }

    fn overlaps_own(&self, addr: u64, size: u64) -> bool {
        addr < self.addr + u64::from(self.size) && addr + size > self.addr
    }

    fn explicit_covers(&self, b: u64) -> bool {
        self.ranges.iter().any(|&(a, s)| b >= a && b < a + s)
    }

    /// Equation 3: consistent iff written strictly between the pre-last and
    /// the last commit write.
    fn is_consistent(&self, tlast: u32) -> bool {
        match self.last_commit {
            None => false,
            Some(last) => tlast < last && self.prelast_commit.is_none_or(|p| tlast > p),
        }
    }
}

#[derive(Debug, Clone, Default)]
struct OTx {
    added: Vec<(u64, u64)>,
    allocs: Vec<(u64, u64)>,
}

impl OTx {
    fn protects(&self, b: u64) -> bool {
        let hit = |rs: &[(u64, u64)]| rs.iter().any(|&(s, e)| b >= s && b < e);
        hit(&self.added) || hit(&self.allocs)
    }

    fn overlaps_added(&self, start: u64, end: u64) -> bool {
        self.added.iter().any(|&(s, e)| start < e && end > s)
    }
}

/// The oracle's whole pre-failure state: one map entry per touched byte.
#[derive(Debug, Clone, Default)]
struct OracleState {
    bytes: HashMap<u64, OByte>,
    ts: u32,
    vars: Vec<OVar>,
    tx: Option<OTx>,
    domain: PersistDomain,
}

impl OracleState {
    /// The domain-dependent "contents lost at the crash" rule: an
    /// un-persisted byte is lost under ADR and CXL GPF, but eADR's
    /// persistence domain includes the cache, so nothing dirty is lost.
    fn byte_lost(&self, st: &OByte) -> bool {
        st.persist != Persist::Persisted && self.domain != PersistDomain::Eadr
    }

    /// CXL GPF only: a persisted byte whose media commit may still sit in
    /// the device's bounded reorder window at the failure.
    fn byte_buffered(&self, st: &OByte) -> bool {
        let PersistDomain::CxlGpf { reorder_window } = self.domain else {
            return false;
        };
        st.persist == Persist::Persisted
            && st.written
            && !st.writer_internal
            && (self.ts.wrapping_sub(st.tpersist) as usize) <= reorder_window
    }

    fn apply_pre(&mut self, e: &TraceEntry, out: &mut DetectionReport) {
        match e.op {
            Op::Write { addr, size } => {
                self.on_write(addr, u64::from(size), e.loc, false, e.internal);
            }
            Op::NtWrite { addr, size } => {
                self.on_write(addr, u64::from(size), e.loc, true, e.internal);
            }
            Op::Flush { addr, .. } => self.on_flush(addr, e.loc, e.checked, out),
            Op::Fence { .. } => {
                let ts = self.ts;
                for st in self.bytes.values_mut() {
                    if st.persist == Persist::WritebackPending {
                        st.persist = Persist::Persisted;
                        st.tpersist = ts;
                    }
                }
                self.ts += 1;
            }
            Op::Read { .. } => {}
            Op::TxBegin => self.tx = Some(OTx::default()),
            Op::TxAdd { addr, size } => {
                self.on_tx_add(addr, u64::from(size), e.loc, e.checked, out);
            }
            Op::TxCommit | Op::TxAbort => self.tx = None,
            Op::Alloc { addr, size, zeroed } => self.on_alloc(addr, u64::from(size), zeroed, e.loc),
            Op::Free { addr, size } => {
                for b in addr..addr + u64::from(size) {
                    self.bytes.remove(&b);
                }
            }
            Op::RegisterCommitVar { addr, size } => {
                if !self.vars.iter().any(|v| v.addr == addr) {
                    self.vars.push(OVar {
                        addr,
                        size,
                        ranges: Vec::new(),
                        last_commit: None,
                        prelast_commit: None,
                    });
                }
            }
            Op::RegisterCommitRange {
                var_addr,
                addr,
                size,
            } => self.on_register_range(var_addr, addr, u64::from(size), e.loc, out),
        }
    }

    fn on_write(
        &mut self,
        addr: u64,
        size: u64,
        loc: SourceLoc,
        non_temporal: bool,
        internal: bool,
    ) {
        let ts = self.ts;
        // One commit event per overlapping variable per store (§3.2).
        for var in &mut self.vars {
            if var.overlaps_own(addr, size) {
                var.prelast_commit = var.last_commit;
                var.last_commit = Some(ts);
            }
        }
        let in_tx = self.tx.is_some();
        let all_protected = self
            .tx
            .as_ref()
            .is_some_and(|tx| (addr..addr + size).all(|b| tx.protects(b)));
        let state = if non_temporal {
            Persist::WritebackPending
        } else {
            Persist::Modified
        };
        for b in addr..addr + size {
            let protected_b = all_protected || self.tx.as_ref().is_some_and(|tx| tx.protects(b));
            let st = self.bytes.entry(b).or_insert_with(OByte::untracked);
            st.persist = state;
            st.written = true;
            st.tlast = ts;
            st.writer = loc;
            st.writer_internal = internal;
            if in_tx {
                st.tx_protected = protected_b;
                st.unprotected_tx_write = !all_protected && !protected_b;
            } else {
                st.tx_protected = false;
                st.unprotected_tx_write = false;
            }
        }
        if non_temporal {
            // NT-store snoop: earlier plain stores to the covered lines are
            // forced writeback-pending (they persist at the same fence).
            let first_line = addr / LINE;
            let last_line = (addr + size - 1) / LINE;
            for li in first_line..=last_line {
                for b in li * LINE..(li + 1) * LINE {
                    if let Some(st) = self.bytes.get_mut(&b) {
                        if st.persist == Persist::Modified {
                            st.persist = Persist::WritebackPending;
                        }
                    }
                }
            }
        }
    }

    fn on_flush(&mut self, addr: u64, loc: SourceLoc, checked: bool, out: &mut DetectionReport) {
        let li = addr / LINE;
        let mut any_modified = false;
        for b in li * LINE..(li + 1) * LINE {
            if let Some(st) = self.bytes.get_mut(&b) {
                if st.persist == Persist::Modified {
                    st.persist = Persist::WritebackPending;
                    any_modified = true;
                }
            }
        }
        if !any_modified && checked {
            out.push(Finding {
                kind: BugKind::RedundantFlush,
                addr: li * LINE,
                size: LINE as u32,
                reader: Some(loc),
                writer: None,
                failure_point: None,
                message: Some("write-back of a line with no modified data".to_owned()),
            });
        }
    }

    fn on_tx_add(
        &mut self,
        addr: u64,
        size: u64,
        loc: SourceLoc,
        checked: bool,
        out: &mut DetectionReport,
    ) {
        let Some(tx) = self.tx.as_mut() else {
            return; // library rejects this; nothing to track
        };
        if tx.overlaps_added(addr, addr + size) && checked {
            out.push(Finding {
                kind: BugKind::DuplicateTxAdd,
                addr,
                size: size as u32,
                reader: Some(loc),
                writer: None,
                failure_point: None,
                message: Some("range already added to this transaction".to_owned()),
            });
        }
        tx.added.push((addr, addr + size));
        // The snapshot makes the range consistent from here on, except for
        // bytes already written inside this transaction before being added.
        let ts = self.ts;
        for b in addr..addr + size {
            match self.bytes.get_mut(&b) {
                Some(st) => {
                    if !st.unprotected_tx_write {
                        st.tx_protected = true;
                    }
                }
                None => {
                    let mut st = OByte::untracked();
                    st.tx_protected = true;
                    st.tlast = ts;
                    st.writer = loc;
                    self.bytes.insert(b, st);
                }
            }
        }
    }

    fn on_alloc(&mut self, addr: u64, size: u64, zeroed: bool, loc: SourceLoc) {
        let fresh = OByte {
            persist: if zeroed {
                Persist::Persisted
            } else {
                Persist::Unmodified
            },
            written: false,
            allocated: true,
            zeroed_alloc: zeroed,
            tx_protected: false,
            unprotected_tx_write: false,
            tlast: self.ts,
            tpersist: 0,
            writer_internal: false,
            writer: loc,
        };
        for b in addr..addr + size {
            self.bytes.insert(b, fresh);
        }
        if let Some(tx) = self.tx.as_mut() {
            tx.allocs.push((addr, addr + size));
        }
    }

    fn on_register_range(
        &mut self,
        var_addr: u64,
        addr: u64,
        size: u64,
        loc: SourceLoc,
        out: &mut DetectionReport,
    ) {
        let overlap = self.vars.iter().any(|v| {
            v.addr != var_addr
                && v.ranges
                    .iter()
                    .any(|&(a, s)| addr < a + s && addr + size > a)
        });
        if overlap {
            out.push(Finding {
                kind: BugKind::AnnotationConflict,
                addr,
                size: size as u32,
                reader: Some(loc),
                writer: None,
                failure_point: None,
                message: Some(
                    "commit ranges of different commit variables overlap (Equation 2)".to_owned(),
                ),
            });
        }
        match self.vars.iter_mut().find(|v| v.addr == var_addr) {
            Some(var) => var.ranges.push((addr, size)),
            None => {
                out.push(Finding {
                    kind: BugKind::AnnotationConflict,
                    addr,
                    size: size as u32,
                    reader: Some(loc),
                    writer: None,
                    failure_point: None,
                    message: Some(format!(
                        "commit range registered for unknown commit variable {var_addr:#x}"
                    )),
                });
            }
        }
    }

    fn is_commit_var_byte(&self, b: u64) -> bool {
        self.vars.iter().any(|v| v.covers_own(b))
    }

    /// An explicit range wins; otherwise the sole range-less variable
    /// governs every location (the paper's default rule).
    fn governing_var(&self, b: u64) -> Option<&OVar> {
        if let Some(v) = self.vars.iter().find(|v| v.explicit_covers(b)) {
            return Some(v);
        }
        match self.vars.as_slice() {
            [only] if only.ranges.is_empty() => Some(only),
            _ => None,
        }
    }
}

/// Post-failure checker over a deep-cloned snapshot of the oracle state.
struct OracleChecker {
    state: OracleState,
    post_written: HashSet<u64>,
    checked_reads: HashSet<u64>,
    first_read_only: bool,
}

impl OracleChecker {
    fn apply_post(&mut self, e: &TraceEntry, fp: FailurePoint, out: &mut DetectionReport) {
        match e.op {
            Op::Read { addr, size } if e.checked => {
                self.check_read(addr, u64::from(size), e.loc, fp, out);
            }
            Op::Write { addr, size } | Op::NtWrite { addr, size } => {
                for b in addr..addr + u64::from(size) {
                    self.post_written.insert(b);
                }
            }
            Op::Alloc { addr, size, zeroed } if zeroed => {
                for b in addr..addr + u64::from(size) {
                    self.post_written.insert(b);
                }
            }
            _ => {}
        }
    }

    fn check_read(
        &mut self,
        addr: u64,
        size: u64,
        loc: SourceLoc,
        fp: FailurePoint,
        out: &mut DetectionReport,
    ) {
        let mut reported = false;
        for b in addr..addr + size {
            if (self.first_read_only && !self.checked_reads.insert(b)) || reported {
                continue;
            }
            if self.post_written.contains(&b) {
                continue;
            }
            let Some(st) = self.state.bytes.get(&b) else {
                continue; // never touched pre-failure
            };
            if self.state.is_commit_var_byte(b) {
                continue; // benign read of a commit variable
            }
            if !st.written {
                if st.allocated && !st.zeroed_alloc {
                    out.push(Finding {
                        kind: BugKind::UninitializedRace,
                        addr: b,
                        size: 1,
                        reader: Some(loc),
                        writer: Some(st.writer),
                        failure_point: Some(fp),
                        message: Some(
                            "post-failure read of allocated but never-initialized memory"
                                .to_owned(),
                        ),
                    });
                    reported = true;
                }
                continue;
            }
            if st.tx_protected {
                continue;
            }
            let semantic = self
                .state
                .governing_var(b)
                .map(|v| v.is_consistent(st.tlast));
            if semantic == Some(true) {
                continue;
            }
            if self.state.byte_lost(st) {
                out.push(Finding {
                    kind: BugKind::CrossFailureRace,
                    addr: b,
                    size: 1,
                    reader: Some(loc),
                    writer: Some(st.writer),
                    failure_point: Some(fp),
                    message: None,
                });
                reported = true;
                continue;
            }
            if self.state.byte_buffered(st) {
                out.push(Finding {
                    kind: BugKind::CrossFailureRace,
                    addr: b,
                    size: 1,
                    reader: Some(loc),
                    writer: Some(st.writer),
                    failure_point: Some(fp),
                    message: Some(
                        "write still in the device reorder window at the failure".to_owned(),
                    ),
                });
                reported = true;
                continue;
            }
            if semantic == Some(false) || st.unprotected_tx_write {
                out.push(Finding {
                    kind: BugKind::CrossFailureSemantic,
                    addr: b,
                    size: 1,
                    reader: Some(loc),
                    writer: Some(st.writer),
                    failure_point: Some(fp),
                    message: None,
                });
                return;
            }
        }
    }
}

/// Computes the ground-truth report of a recorded run: replays the
/// pre-failure trace per byte, deep-cloning the whole state at every
/// failure point and checking that failure point's post-failure trace.
/// Replay order matches `xfdetector::offline::analyze`, so a correct
/// engine must produce the identical trace-derived findings in the
/// identical order.
#[must_use]
pub fn oracle_report(run: &RecordedRun, first_read_only: bool) -> DetectionReport {
    oracle_report_in(run, first_read_only, run.domain)
}

/// [`oracle_report`] under an explicit persistence domain, overriding the
/// one stamped in the run — the differential driver uses this to sweep the
/// same recorded trace across every domain.
#[must_use]
pub fn oracle_report_in(
    run: &RecordedRun,
    first_read_only: bool,
    domain: PersistDomain,
) -> DetectionReport {
    let mut report = DetectionReport::new();
    let mut state = OracleState {
        domain,
        ..OracleState::default()
    };
    let mut cursor = 0usize;

    for (id, rfp) in run.failure_points.iter().enumerate() {
        let upto = rfp.pre_len.min(run.pre.len());
        while cursor < upto {
            state.apply_pre(&run.pre[cursor].to_entry(), &mut report);
            cursor += 1;
        }
        let fp = FailurePoint {
            id: id as u64,
            loc: SourceLoc {
                file: xftrace::intern_file(&rfp.file).expect("file-name table full"),
                line: rfp.line,
            },
        };
        let mut checker = OracleChecker {
            state: state.clone(), // full deep copy: the naive checkpoint
            post_written: HashSet::new(),
            checked_reads: HashSet::new(),
            first_read_only,
        };
        for e in &rfp.post {
            checker.apply_post(&e.to_entry(), fp, &mut report);
        }
    }
    while cursor < run.pre.len() {
        state.apply_pre(&run.pre[cursor].to_entry(), &mut report);
        cursor += 1;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use xfdetector::offline::analyze;
    use xfdetector::{Workload, XfConfig, XfDetector};

    /// Hand-written workload mixing the FSM edges: plain store + flush +
    /// fence, an unpersisted publish, a transaction, and an NT store.
    struct Mixed;

    impl Workload for Mixed {
        fn name(&self) -> &str {
            "mixed"
        }
        fn pool_size(&self) -> u64 {
            256 * 1024
        }
        fn setup(&self, ctx: &mut PmCtx) -> Result<(), xfdetector::DynError> {
            let mut pool = pmdk_sim::ObjPool::create_robust(ctx)?;
            let _ = pool.root(ctx, 256)?;
            Ok(())
        }
        fn pre_failure(&self, ctx: &mut PmCtx) -> Result<(), xfdetector::DynError> {
            let mut pool = pmdk_sim::ObjPool::open(ctx)?;
            let a = pool.root(ctx, 256)?;
            ctx.write_u64(a, 1)?;
            ctx.persist_barrier(a, 8)?;
            ctx.write_u64(a + 8, 2)?; // unpersisted publish
            pool.tx_begin(ctx)?;
            pool.tx_add(ctx, a + 64, 8)?;
            ctx.write_u64(a + 64, 3)?;
            ctx.write_u64(a + 72, 4)?; // unadded write inside tx
            pool.tx_commit(ctx)?;
            ctx.nt_write(a + 128, &5u64.to_le_bytes())?;
            ctx.sfence();
            Ok(())
        }
        fn post_failure(&self, ctx: &mut PmCtx) -> Result<(), xfdetector::DynError> {
            let mut pool = pmdk_sim::ObjPool::open(ctx)?;
            let a = pool.root(ctx, 256)?;
            for off in [0u64, 8, 64, 72, 128] {
                let _ = ctx.read_u64(a + off)?;
            }
            Ok(())
        }
    }

    use pmem::PmCtx;

    #[test]
    fn oracle_matches_the_offline_replay_exactly() {
        let cfg = XfConfig {
            record_trace: true,
            ..XfConfig::default()
        };
        let outcome = XfDetector::new(cfg).run(Mixed).unwrap();
        let recorded = outcome.recorded.expect("recorded");
        let offline = analyze(&recorded, true);
        let oracle = oracle_report(&recorded, true);
        assert_eq!(
            serde_json::to_string(offline.findings()).unwrap(),
            serde_json::to_string(oracle.findings()).unwrap(),
        );
        assert!(oracle.race_count() >= 1, "{oracle}");
    }

    #[test]
    fn oracle_honors_first_read_only_ablation() {
        let cfg = XfConfig {
            record_trace: true,
            first_read_only: false,
            ..XfConfig::default()
        };
        let outcome = XfDetector::new(cfg).run(Mixed).unwrap();
        let recorded = outcome.recorded.expect("recorded");
        let offline = analyze(&recorded, false);
        let oracle = oracle_report(&recorded, false);
        assert_eq!(
            serde_json::to_string(offline.findings()).unwrap(),
            serde_json::to_string(oracle.findings()).unwrap(),
        );
    }

    #[test]
    fn empty_run_is_clean() {
        assert!(oracle_report(&RecordedRun::default(), true).is_empty());
    }

    #[test]
    fn oracle_matches_the_offline_replay_under_every_domain() {
        let cfg = XfConfig {
            record_trace: true,
            ..XfConfig::default()
        };
        let outcome = XfDetector::new(cfg).run(Mixed).unwrap();
        let recorded = outcome.recorded.expect("recorded");
        for domain in [
            PersistDomain::Adr,
            PersistDomain::Eadr,
            PersistDomain::CxlGpf { reorder_window: 1 },
            PersistDomain::CxlGpf { reorder_window: 64 },
        ] {
            let offline = xfdetector::offline::analyze_in(&recorded, true, domain);
            let oracle = oracle_report_in(&recorded, true, domain);
            assert_eq!(
                serde_json::to_string(offline.findings()).unwrap(),
                serde_json::to_string(oracle.findings()).unwrap(),
                "domain {domain}",
            );
        }
    }

    #[test]
    fn oracle_honors_the_domain_stamped_in_the_run() {
        let cfg = XfConfig {
            record_trace: true,
            domain: PersistDomain::Eadr,
            ..XfConfig::default()
        };
        let outcome = XfDetector::new(cfg).run(Mixed).unwrap();
        let recorded = outcome.recorded.expect("recorded");
        assert_eq!(recorded.domain, PersistDomain::Eadr);
        let stamped = oracle_report(&recorded, true);
        let explicit = oracle_report_in(&recorded, true, PersistDomain::Eadr);
        assert_eq!(
            serde_json::to_string(stamped.findings()).unwrap(),
            serde_json::to_string(explicit.findings()).unwrap(),
        );
        // The unpersisted publish at a+8 is dirty cache at the crash: lost
        // under ADR, retained (and clean) under eADR.
        let adr = oracle_report_in(&recorded, true, PersistDomain::Adr);
        assert!(
            adr.race_count() > stamped.race_count(),
            "{adr} vs {stamped}"
        );
    }
}
