//! Tracing substrate for the XFDetector reproduction.
//!
//! The original XFDetector uses Intel Pin to instrument a binary and extract a
//! trace of persistent-memory (PM) operations — writes, cache-line write-backs,
//! fences — plus function-granularity events for PM library internals
//! (transaction begin/add/commit, allocations). This crate is the software
//! replacement for that frontend: the PM simulator ([`pmem`]) and the PMDK
//! workalike ([`pmdk-sim`]) emit [`TraceEntry`] values into a [`TraceBuf`]
//! which the detector backend replays.
//!
//! Every entry carries a [`SourceLoc`] captured via `#[track_caller]`, playing
//! the role of Pin's instruction pointer: bug reports point at the file and
//! line of the offending read and of the last writer.
//!
//! # Example
//!
//! ```
//! use xftrace::{TraceBuf, TraceEntry, Op, SourceLoc, Stage};
//!
//! let buf = TraceBuf::new();
//! buf.record(TraceEntry::new(
//!     Op::Write { addr: 0x1000, size: 8 },
//!     SourceLoc::caller(),
//!     Stage::Pre,
//!     false,
//!     true,
//! ));
//! assert_eq!(buf.len(), 1);
//! let drained = buf.drain();
//! assert_eq!(drained.len(), 1);
//! assert!(buf.is_empty());
//! ```
//!
//! [`pmem`]: https://example.org/pmem
//! [`pmdk-sim`]: https://example.org/pmdk-sim

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::fmt;
use std::panic::Location;
use std::rc::Rc;

use serde::{Deserialize, Serialize};

pub mod codec;
pub mod fnv;
pub mod varint;

/// A source-code location attached to every trace entry.
///
/// This is the reproduction's stand-in for the instruction pointer that the
/// paper's Pin frontend records: it lets the detector report *where* the
/// racing read and the last write to a PM location happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct SourceLoc {
    /// Source file path (as produced by `file!()` / `Location::file()`).
    pub file: &'static str,
    /// 1-based line number.
    pub line: u32,
}

impl SourceLoc {
    /// Captures the location of the caller.
    ///
    /// Must be invoked from a `#[track_caller]` chain to be meaningful; when
    /// called directly it records the call site itself.
    #[must_use]
    #[track_caller]
    pub fn caller() -> Self {
        let loc = Location::caller();
        SourceLoc {
            file: loc.file(),
            line: loc.line(),
        }
    }

    /// A synthetic location used for engine-generated events that have no
    /// user source position (e.g. the implicit terminating fence).
    #[must_use]
    pub const fn synthetic(tag: &'static str) -> Self {
        SourceLoc { file: tag, line: 0 }
    }
}

impl fmt::Display for SourceLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.file, self.line)
    }
}

/// The kind of cache-line flush instruction.
///
/// All three x86 flavors write the line back to memory; they differ in
/// invalidation and ordering behavior. `CLWB`/`CLFLUSHOPT` are only ordered by
/// a subsequent `SFENCE`, which is what makes the `persist_barrier()` idiom
/// (`CLWB; SFENCE`) necessary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlushKind {
    /// `CLWB` — write back, keep the line cached.
    Clwb,
    /// `CLFLUSH` — write back and invalidate; ordered with other `CLFLUSH`es.
    Clflush,
    /// `CLFLUSHOPT` — write back and invalidate, weakly ordered.
    Clflushopt,
}

impl fmt::Display for FlushKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FlushKind::Clwb => "CLWB",
            FlushKind::Clflush => "CLFLUSH",
            FlushKind::Clflushopt => "CLFLUSHOPT",
        };
        f.write_str(s)
    }
}

/// The kind of memory fence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FenceKind {
    /// `SFENCE` — orders prior flushes/non-temporal stores; the canonical
    /// ordering point of the paper (§4.2).
    Sfence,
    /// `MFENCE` — full fence; also an ordering point.
    Mfence,
    /// A library-level drain (e.g. `pmem_drain()`), equivalent to `SFENCE`.
    Drain,
}

impl fmt::Display for FenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FenceKind::Sfence => "SFENCE",
            FenceKind::Mfence => "MFENCE",
            FenceKind::Drain => "DRAIN",
        };
        f.write_str(s)
    }
}

/// A single traced PM operation.
///
/// Low-level entries (`Write`, `Read`, `Flush`, `Fence`, `NtWrite`) mirror the
/// instruction-granularity trace of the paper's Pin frontend; the remaining
/// variants are the function-granularity events it records for PM library
/// calls (PMDK transactions and allocations, §5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// A store to PM.
    Write {
        /// Destination address.
        addr: u64,
        /// Size in bytes.
        size: u32,
    },
    /// A load from PM.
    Read {
        /// Source address.
        addr: u64,
        /// Size in bytes.
        size: u32,
    },
    /// A non-temporal store (bypasses the cache; persists at the next fence).
    NtWrite {
        /// Destination address.
        addr: u64,
        /// Size in bytes.
        size: u32,
    },
    /// A cache-line write-back.
    Flush {
        /// Any address within the flushed line.
        addr: u64,
        /// Which flush instruction was used.
        kind: FlushKind,
    },
    /// A fence ordering prior flushes.
    Fence {
        /// Which fence instruction was used.
        kind: FenceKind,
    },
    /// Start of a failure-atomic transaction (PMDK `TX_BEGIN`).
    TxBegin,
    /// A PM range added to the current transaction's undo log
    /// (PMDK `TX_ADD`). The detector treats the range as consistent from this
    /// point: the log guarantees it can be rolled back.
    TxAdd {
        /// Start of the snapshotted range.
        addr: u64,
        /// Length of the snapshotted range.
        size: u32,
    },
    /// Successful commit of the current transaction (PMDK `TX_END`).
    TxCommit,
    /// Abort of the current transaction.
    TxAbort,
    /// A persistent allocation returned this range to the program.
    /// `zeroed` records whether the allocator initialized the memory.
    Alloc {
        /// Start of the allocation.
        addr: u64,
        /// Length of the allocation.
        size: u32,
        /// Whether the allocator zero-initialized the range.
        zeroed: bool,
    },
    /// A persistent range was freed.
    Free {
        /// Start of the freed range.
        addr: u64,
        /// Length of the freed range.
        size: u32,
    },
    /// Registers a commit variable (paper §3.2 / Table 2 `addCommitVar`).
    /// Reads from this range during the post-failure stage are benign
    /// cross-failure races; writes to it alter the consistency status of its
    /// associated address set.
    RegisterCommitVar {
        /// Start of the commit variable.
        addr: u64,
        /// Length of the commit variable.
        size: u32,
    },
    /// Associates a PM range with a previously registered commit variable
    /// (Table 2 `addCommitRange`). Without any association the commit
    /// variable covers all PM locations.
    RegisterCommitRange {
        /// Address of the commit variable this range belongs to.
        var_addr: u64,
        /// Start of the associated range.
        addr: u64,
        /// Length of the associated range.
        size: u32,
    },
}

impl Op {
    /// Returns the `(addr, size)` range this operation touches, if any.
    #[must_use]
    pub fn range(&self) -> Option<(u64, u32)> {
        match *self {
            Op::Write { addr, size }
            | Op::Read { addr, size }
            | Op::NtWrite { addr, size }
            | Op::TxAdd { addr, size }
            | Op::Alloc { addr, size, .. }
            | Op::Free { addr, size } => Some((addr, size)),
            Op::Flush { addr, .. } => Some((addr, 1)),
            Op::RegisterCommitVar { addr, size } => Some((addr, size)),
            Op::RegisterCommitRange { addr, size, .. } => Some((addr, size)),
            Op::Fence { .. } | Op::TxBegin | Op::TxCommit | Op::TxAbort => None,
        }
    }

    /// Whether this operation mutates PM state (used by the failure-injection
    /// optimization that skips ordering points with no PM activity between
    /// them, §5.4).
    #[must_use]
    pub fn is_pm_mutation(&self) -> bool {
        matches!(
            self,
            Op::Write { .. }
                | Op::NtWrite { .. }
                | Op::Flush { .. }
                | Op::TxAdd { .. }
                | Op::Alloc { .. }
                | Op::Free { .. }
        )
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Op::Write { addr, size } => write!(f, "WRITE {addr:#x} {size}"),
            Op::Read { addr, size } => write!(f, "READ {addr:#x} {size}"),
            Op::NtWrite { addr, size } => write!(f, "NTWRITE {addr:#x} {size}"),
            Op::Flush { addr, kind } => write!(f, "{kind} {addr:#x}"),
            Op::Fence { kind } => write!(f, "{kind}"),
            Op::TxBegin => f.write_str("TX_BEGIN"),
            Op::TxAdd { addr, size } => write!(f, "TX_ADD {addr:#x} {size}"),
            Op::TxCommit => f.write_str("TX_COMMIT"),
            Op::TxAbort => f.write_str("TX_ABORT"),
            Op::Alloc { addr, size, zeroed } => {
                write!(f, "ALLOC {addr:#x} {size} zeroed={zeroed}")
            }
            Op::Free { addr, size } => write!(f, "FREE {addr:#x} {size}"),
            Op::RegisterCommitVar { addr, size } => {
                write!(f, "COMMIT_VAR {addr:#x} {size}")
            }
            Op::RegisterCommitRange {
                var_addr,
                addr,
                size,
            } => {
                write!(f, "COMMIT_RANGE var={var_addr:#x} {addr:#x} {size}")
            }
        }
    }
}

/// Which execution stage an entry belongs to (§2: the stages before and after
/// the injected failure).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Stage {
    /// Normal execution, before the injected failure.
    Pre,
    /// Recovery and resumption, after the injected failure.
    Post,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Stage::Pre => "pre-failure",
            Stage::Post => "post-failure",
        })
    }
}

/// One record in a PM operation trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TraceEntry {
    /// The traced operation.
    pub op: Op,
    /// Where in the source the operation was issued.
    pub loc: SourceLoc,
    /// Logical thread that issued the operation. Single-threaded traces
    /// (and every post-failure stage, which recovers on one thread) use
    /// thread 0; the cooperative interleaving scheduler stamps the id of
    /// the thread it scheduled for each step.
    pub tid: u32,
    /// Which execution stage produced the entry.
    pub stage: Stage,
    /// `true` when the entry was produced by trusted PM-library internals
    /// (e.g. the undo-log bookkeeping of the PMDK workalike). Internal
    /// entries still drive the persistence state machine — the bytes they
    /// touch are real — but their reads are exempt from bug checks, matching
    /// the paper's function-granularity treatment of library code (§5.3).
    pub internal: bool,
    /// `true` when bug checks apply to this entry: it was issued inside the
    /// region-of-interest, outside any `skipDetection` region and outside
    /// library internals (Table 2). Entries with `checked == false` still
    /// update the shadow PM.
    pub checked: bool,
}

impl TraceEntry {
    /// Creates a trace entry on thread 0. `internal` marks trusted
    /// library-internal operations; `checked` marks entries subject to bug
    /// checks. Use [`TraceEntry::with_tid`] to re-attribute the entry to
    /// another logical thread.
    #[must_use]
    pub fn new(op: Op, loc: SourceLoc, stage: Stage, internal: bool, checked: bool) -> Self {
        TraceEntry {
            op,
            loc,
            tid: 0,
            stage,
            internal,
            checked,
        }
    }

    /// Returns the entry re-attributed to logical thread `tid`.
    #[must_use]
    pub fn with_tid(mut self, tid: u32) -> Self {
        self.tid = tid;
        self
    }
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}]{} {} @ {}",
            self.stage,
            if self.internal { " (lib)" } else { "" },
            self.op,
            self.loc
        )
    }
}

/// A shared, append-only trace buffer.
///
/// This plays the role of the paper's pre-/post-failure trace FIFOs between
/// the Pin frontend and the detector backend (§5.4, Figure 8): producers
/// `record` entries, the backend `drain`s them incrementally so detection can
/// overlap with tracing. The engine is single-threaded, so a `Rc<RefCell<…>>`
/// suffices; cloning the handle clones the *channel*, not the contents.
#[derive(Debug, Clone, Default)]
pub struct TraceBuf {
    inner: Rc<RefCell<Vec<TraceEntry>>>,
}

impl TraceBuf {
    /// Creates an empty trace buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one entry.
    pub fn record(&self, entry: TraceEntry) {
        self.inner.borrow_mut().push(entry);
    }

    /// Number of entries currently buffered (recorded and not yet drained).
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.borrow().len()
    }

    /// Whether the buffer is currently empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().is_empty()
    }

    /// Removes and returns all buffered entries, preserving order.
    ///
    /// The detector backend calls this at every failure point to replay the
    /// *new* pre-failure entries incrementally rather than starting over
    /// (§5.4 "incrementally traces new operations").
    #[must_use]
    pub fn drain(&self) -> Vec<TraceEntry> {
        std::mem::take(&mut *self.inner.borrow_mut())
    }

    /// [`TraceBuf::drain`] that hands the buffer `spare` to the trace in
    /// place of the drained one, so recording reuses its allocation.
    /// `spare` is cleared first: the returned buffer holds exactly the
    /// entries recorded since the previous drain.
    #[must_use]
    pub fn drain_into(&self, mut spare: Vec<TraceEntry>) -> Vec<TraceEntry> {
        spare.clear();
        std::mem::replace(&mut *self.inner.borrow_mut(), spare)
    }

    /// Returns a copy of the buffered entries without draining them.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TraceEntry> {
        self.inner.borrow().clone()
    }
}

/// An owned, (de)serializable trace entry for offline analysis.
///
/// [`TraceEntry`] borrows its source file name as `&'static str` (it comes
/// from `file!()`); the owned form carries a `String` so traces can be
/// written to disk by one process and replayed by another — the decoupled
/// frontend/backend arrangement of the paper's §5.5.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OwnedTraceEntry {
    /// The traced operation.
    pub op: Op,
    /// Source file of the operation.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Logical thread that issued the operation (0 for single-threaded
    /// traces and for every post-failure stage).
    pub tid: u32,
    /// Which execution stage produced the entry.
    pub stage: Stage,
    /// Produced by trusted library internals.
    pub internal: bool,
    /// Subject to bug checks.
    pub checked: bool,
}

impl From<TraceEntry> for OwnedTraceEntry {
    fn from(e: TraceEntry) -> Self {
        OwnedTraceEntry {
            op: e.op,
            file: e.loc.file.to_owned(),
            line: e.loc.line,
            tid: e.tid,
            stage: e.stage,
            internal: e.internal,
            checked: e.checked,
        }
    }
}

impl OwnedTraceEntry {
    /// Converts back to a borrowed [`TraceEntry`], interning the file name
    /// with [`intern_file`].
    ///
    /// # Panics
    ///
    /// If the file name is new and the file-name table is full. Decoding
    /// a trace ([`codec`]) interns its names first and fails with a typed
    /// error instead.
    #[must_use]
    pub fn to_entry(&self) -> TraceEntry {
        TraceEntry {
            op: self.op,
            loc: SourceLoc {
                file: intern_file(&self.file).expect("file-name table full"),
                line: self.line,
            },
            tid: self.tid,
            stage: self.stage,
            internal: self.internal,
            checked: self.checked,
        }
    }
}

/// The most bytes of file names [`intern_file`] keeps over the life of
/// the process. The bundled workloads intern a few dozen names of under
/// 100 bytes each; a server decoding uploads stops taking new names here
/// instead of growing with every name a client sends.
pub const MAX_INTERNED_FILE_BYTES: usize = 1 << 20;

/// The process-global file-name table and the bytes it holds.
static INTERNER: std::sync::Mutex<(Option<std::collections::HashSet<&'static str>>, usize)> =
    std::sync::Mutex::new((None, 0));

/// Interns a file name into a `&'static str` (deduplicated).
///
/// This is the bridge from owned trace representations (JSON, the `.xft`
/// binary codec) back to the borrowed [`SourceLoc`] the detector works
/// with. Names are deduplicated in a process-global table and live for the
/// rest of the process. The table holds at most
/// [`MAX_INTERNED_FILE_BYTES`]: a new name that does not fit returns
/// `None`, and the table does not grow. A name already in it always
/// resolves.
pub fn intern_file(name: &str) -> Option<&'static str> {
    let mut guard = INTERNER.lock().expect("interner poisoned");
    let (set, bytes) = &mut *guard;
    let set = set.get_or_insert_with(Default::default);
    if let Some(existing) = set.get(name) {
        return Some(existing);
    }
    if *bytes + name.len() > MAX_INTERNED_FILE_BYTES {
        return None;
    }
    *bytes += name.len();
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    set.insert(leaked);
    Some(leaked)
}

/// Bytes of file names [`intern_file`] holds, at most
/// [`MAX_INTERNED_FILE_BYTES`].
#[must_use]
pub fn interned_file_bytes() -> usize {
    INTERNER.lock().expect("interner poisoned").1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_loc_caller_records_this_file() {
        let loc = SourceLoc::caller();
        assert!(loc.file.ends_with("lib.rs"), "got {}", loc.file);
        assert!(loc.line > 0);
    }

    #[test]
    fn source_loc_display() {
        let loc = SourceLoc {
            file: "a.rs",
            line: 7,
        };
        assert_eq!(loc.to_string(), "a.rs:7");
    }

    #[test]
    fn synthetic_loc_has_line_zero() {
        let loc = SourceLoc::synthetic("<engine>");
        assert_eq!(loc.line, 0);
        assert_eq!(loc.file, "<engine>");
    }

    #[test]
    fn op_range_covers_data_ops() {
        assert_eq!(Op::Write { addr: 16, size: 4 }.range(), Some((16, 4)));
        assert_eq!(Op::Read { addr: 8, size: 2 }.range(), Some((8, 2)));
        assert_eq!(
            Op::Flush {
                addr: 64,
                kind: FlushKind::Clwb
            }
            .range(),
            Some((64, 1))
        );
        assert_eq!(
            Op::Fence {
                kind: FenceKind::Sfence
            }
            .range(),
            None
        );
        assert_eq!(Op::TxBegin.range(), None);
    }

    #[test]
    fn pm_mutation_classification() {
        assert!(Op::Write { addr: 0, size: 1 }.is_pm_mutation());
        assert!(Op::NtWrite { addr: 0, size: 1 }.is_pm_mutation());
        assert!(Op::Alloc {
            addr: 0,
            size: 1,
            zeroed: false
        }
        .is_pm_mutation());
        assert!(!Op::Read { addr: 0, size: 1 }.is_pm_mutation());
        assert!(!Op::Fence {
            kind: FenceKind::Sfence
        }
        .is_pm_mutation());
        assert!(!Op::TxCommit.is_pm_mutation());
    }

    #[test]
    fn trace_buf_record_and_drain_preserves_order() {
        let buf = TraceBuf::new();
        for i in 0..10u64 {
            buf.record(TraceEntry::new(
                Op::Write {
                    addr: i * 8,
                    size: 8,
                },
                SourceLoc::caller(),
                Stage::Pre,
                false,
                true,
            ));
        }
        assert_eq!(buf.len(), 10);
        let drained = buf.drain();
        assert!(buf.is_empty());
        for (i, e) in drained.iter().enumerate() {
            assert_eq!(
                e.op,
                Op::Write {
                    addr: i as u64 * 8,
                    size: 8
                }
            );
        }
    }

    #[test]
    fn drain_into_returns_exactly_the_new_entries_and_clears_the_spare() {
        let entry = |addr| {
            TraceEntry::new(
                Op::Write { addr, size: 8 },
                SourceLoc::caller(),
                Stage::Pre,
                false,
                true,
            )
        };
        let buf = TraceBuf::new();
        buf.record(entry(0));
        buf.record(entry(8));
        let first = buf.drain_into(Vec::new());
        assert_eq!(first.len(), 2);
        assert!(buf.is_empty());

        // A stale spare: its old entries must not leak into the trace.
        let mut spare = first;
        spare.push(entry(16));
        let allocation = spare.as_ptr();
        buf.record(entry(24));
        let second = buf.drain_into(spare);
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].op, Op::Write { addr: 24, size: 8 });

        buf.record(entry(32));
        let third = buf.drain_into(second);
        assert_eq!(third.len(), 1);
        assert_eq!(third[0].op, Op::Write { addr: 32, size: 8 });
        // The trace recorded into the spare's allocation.
        assert_eq!(third.as_ptr(), allocation);
        assert_eq!(buf.len(), 0);
    }

    #[test]
    fn trace_buf_clone_shares_contents() {
        let buf = TraceBuf::new();
        let alias = buf.clone();
        alias.record(TraceEntry::new(
            Op::TxBegin,
            SourceLoc::caller(),
            Stage::Pre,
            false,
            true,
        ));
        assert_eq!(buf.len(), 1);
        let _ = buf.drain();
        assert!(alias.is_empty());
    }

    #[test]
    fn trace_buf_snapshot_does_not_drain() {
        let buf = TraceBuf::new();
        buf.record(TraceEntry::new(
            Op::TxCommit,
            SourceLoc::caller(),
            Stage::Post,
            true,
            false,
        ));
        let snap = buf.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn display_formats() {
        let e = TraceEntry::new(
            Op::Flush {
                addr: 0x40,
                kind: FlushKind::Clwb,
            },
            SourceLoc {
                file: "x.rs",
                line: 3,
            },
            Stage::Post,
            true,
            false,
        );
        let s = e.to_string();
        assert!(s.contains("CLWB 0x40"), "{s}");
        assert!(s.contains("post-failure"), "{s}");
        assert!(s.contains("(lib)"), "{s}");
        assert!(s.contains("x.rs:3"), "{s}");
    }

    #[test]
    fn owned_entry_round_trips_through_json() {
        let e = TraceEntry::new(
            Op::Write {
                addr: 0x40,
                size: 8,
            },
            SourceLoc {
                file: "w.rs",
                line: 9,
            },
            Stage::Pre,
            false,
            true,
        );
        let owned = OwnedTraceEntry::from(e);
        let json = serde_json::to_string(&owned).unwrap();
        let back: OwnedTraceEntry = serde_json::from_str(&json).unwrap();
        assert_eq!(owned, back);
        let entry = back.to_entry();
        assert_eq!(entry.op, e.op);
        assert_eq!(entry.loc.file, "w.rs");
        assert_eq!(entry.loc.line, 9);
        assert_eq!(entry.stage, e.stage);
        assert_eq!(entry.checked, e.checked);
    }

    #[test]
    fn tid_round_trips_through_the_owned_form() {
        let e = TraceEntry::new(
            Op::Write {
                addr: 0x80,
                size: 8,
            },
            SourceLoc {
                file: "t.rs",
                line: 4,
            },
            Stage::Pre,
            false,
            true,
        )
        .with_tid(3);
        assert_eq!(e.tid, 3);
        let owned = OwnedTraceEntry::from(e);
        assert_eq!(owned.tid, 3);
        let json = serde_json::to_string(&owned).unwrap();
        let back: OwnedTraceEntry = serde_json::from_str(&json).unwrap();
        assert_eq!(back.tid, 3);
        assert_eq!(back.to_entry().tid, 3);
    }

    #[test]
    fn interner_deduplicates_file_names() {
        let a = OwnedTraceEntry {
            op: Op::TxBegin,
            file: "same.rs".to_owned(),
            line: 1,
            tid: 0,
            stage: Stage::Pre,
            internal: false,
            checked: true,
        };
        let b = OwnedTraceEntry {
            line: 2,
            ..a.clone()
        };
        let ea = a.to_entry();
        let eb = b.to_entry();
        assert!(
            std::ptr::eq(ea.loc.file, eb.loc.file),
            "same interned pointer"
        );
    }

    #[test]
    fn serde_serialize() {
        let e = TraceEntry::new(
            Op::Alloc {
                addr: 0x1000,
                size: 64,
                zeroed: true,
            },
            SourceLoc::synthetic("<t>"),
            Stage::Pre,
            false,
            true,
        );
        let json = serde_json::to_string(&e).unwrap();
        assert!(json.contains("Alloc"), "{json}");
        assert!(json.contains("\"zeroed\":true"), "{json}");
    }
}
