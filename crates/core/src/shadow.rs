//! The shadow PM: per-location persistence and consistency tracking
//! (paper §5.4, Figures 9–11).
//!
//! [`ShadowPm`] replays the pre-failure trace, maintaining for every touched
//! PM byte a persistence state (the FSM of Figure 9), the timestamp of its
//! last write, the source location of its last writer, and
//! consistency-related flags (transaction protection, commit-variable
//! bookkeeping for the version-based mechanisms of §3.2). At each failure
//! point where the post-failure trace's reads can find something
//! ([`ShadowPm::may_find`]), the engine checkpoints the shadow into a
//! [`PostChecker`] that replays the trace and reports cross-failure races
//! and semantic bugs.
//!
//! # Representation
//!
//! Byte states are stored line-granularly: one [`Slab`] per touched 64-byte
//! cache line, keyed by line index, matching the persist granularity of the
//! hardware (and of `pmem::snapshot::LineBuf` on the data side). A slab is a
//! set of bit-planes, one `u64` per fact with bit `i` for byte `i`: the
//! tracked bytes, the three persistence states of Figure 9 and the
//! consistency flags. Only the values a bit cannot hold stay per byte, in
//! a 16-byte record: two epochs, a writer id and the flusher thread. The
//! id indexes the shadow's writer table, one entry per distinct (source
//! location, thread) pair; a store interns its pair once, whatever the
//! number of bytes it covers. The state machine's transitions are
//! therefore word operations, and so is the suspect predicate
//! ([`ShadowPm::suspects`]) that the fingerprint, the checking filter and
//! the post-failure checker share. The line map is held behind an [`Arc`]
//! and every slab is an `Arc` of its own, so [`ShadowPm::begin_post`] is an
//! O(1) copy-on-write checkpoint: the frontend keeps replaying the
//! pre-failure trace and only the slabs it actually touches while a
//! checkpoint is alive get deep-copied (counted in
//! [`ShadowPm::bytes_cloned`]). The writer table is shared the same way
//! and copied only when a new pair is interned while a checkpoint is
//! alive. A volatile set holds the lines with a non-empty `pending` plane,
//! so a fence visits only those.
//!
//! # Fingerprint upkeep
//!
//! With pruning on, the replaying shadow keeps an index of every suspect
//! line's distinct byte records and a count of how many lines hold each
//! record ([`ShadowPm::enable_fingerprinting`]). A mutation only marks the
//! lines it touches dirty; [`ShadowPm::persistence_fingerprint`] re-derives
//! each dirty line's records once, then folds the distinct records without
//! scanning another byte. A line's records are found run by run, word by
//! word, and each distinct record is hashed once through a memo kept with
//! the index ([`ShadowPm::byte_records`]). The index is re-seeded in full
//! only when a change
//! reaches lines the mutation never touched: a commit-variable
//! registration, a write to the sole range-less commit variable, or a
//! fence under [`PersistDomain::CxlGpf`]. The fold is the one
//! [`ShadowPm::fingerprint_from_scratch`] computes over the sorted,
//! deduplicated records, so fingerprint values and pruning decisions do
//! not depend on which path computed them.
//!
//! # Line hashing
//!
//! The line-keyed maps hash with `LineHasher`, one folded multiply per
//! probe instead of SipHash. Its seed is drawn once per process from
//! [`std::collections::hash_map::RandomState`]: the server replays uploaded
//! traces, and with a fixed seed an upload could choose line addresses that
//! all share a bucket and make its replay quadratic.

use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::{Arc, OnceLock};

use pmem::PersistDomain;
use xftrace::{Op, SourceLoc, TraceEntry};

use crate::report::{BugKind, DetectionReport, FailurePoint, Finding};

/// Cache-line size used for flush granularity (matches the simulator).
const LINE: u64 = 64;

/// Bytes accounted per deep-copied slab (the dense states plus its
/// bitmasks).
const SLAB_BYTES: u64 = std::mem::size_of::<Slab>() as u64;

// Eleven planes and 64 records of 16 bytes: a copy-on-write fault copies
// no more than this.
const _: () = assert!(SLAB_BYTES <= 1_112);

/// Bytes accounted per writer-table entry when the table is detached from
/// a shared checkpoint (the pair plus its map entry).
const WRITER_ENTRY_BYTES: u64 = (std::mem::size_of::<Writer>()
    + std::mem::size_of::<WriterKey>()
    + std::mem::size_of::<u32>()) as u64;

/// Bytes accounted per spine entry when the line map itself is detached
/// from a shared checkpoint (key plus `Arc` pointer).
const SPINE_ENTRY_BYTES: u64 = (std::mem::size_of::<u64>() + std::mem::size_of::<usize>()) as u64;

/// A map keyed by cache-line index.
type LineMap<V> = HashMap<u64, V, LineHasher>;

/// A set of cache-line indices.
type LineSet = HashSet<u64, LineHasher>;

/// Odd multiplier of [`LineHash`] (the 64-bit golden ratio).
const LINE_HASH_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// The hasher of the line-keyed maps: one 64×64→128-bit multiply of
/// `key ^ seed`, its two halves folded by XOR. The seed defaults to a
/// random per-process value (see the module's "Line hashing").
#[derive(Debug, Clone, Copy)]
struct LineHasher {
    seed: u64,
}

impl Default for LineHasher {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        LineHasher {
            seed: *SEED.get_or_init(|| RandomState::new().hash_one(0u64)),
        }
    }
}

impl BuildHasher for LineHasher {
    type Hasher = LineHash;

    fn build_hasher(&self) -> LineHash {
        LineHash(self.seed)
    }
}

/// The running state of one [`LineHasher`] hash.
struct LineHash(u64);

impl Hasher for LineHash {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let product = u128::from(key ^ self.0) * u128::from(LINE_HASH_MUL);
        self.0 = product as u64 ^ (product >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Persistence state of one PM byte (Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistState {
    /// Never modified (or freshly allocated without initialization).
    Unmodified,
    /// Written but not flushed: lost in an arbitrary subset of
    /// interleavings.
    Modified,
    /// Flushed but not yet fenced: persistence not yet guaranteed.
    WritebackPending,
    /// Flushed and fenced: guaranteed durable.
    Persisted,
}

/// The per-byte values of one PM byte that a bit cannot hold. Every
/// yes/no fact about the byte, its persistence state included, is a bit of
/// one of its line's planes ([`Slab`]).
#[derive(Debug, Clone, Copy)]
struct ByteState {
    /// Timestamp (ordering-point epoch) of the last write.
    tlast: u32,
    /// Timestamp of the ordering point that moved this byte to
    /// [`PersistState::Persisted`] (meaningful only in that state). Drives
    /// the [`PersistDomain::CxlGpf`] reorder-window check: persistence is
    /// only conditionally durable until the byte ages out of the window.
    tpersist: u32,
    /// The last writer, as an id into the shadow's [`WriterTable`]: the
    /// source location and thread of the last write (or of the allocation
    /// or `TX_ADD` that started tracking the byte, on thread 0).
    writer: u32,
    /// Thread that issued the write-back moving this byte to
    /// [`PersistState::WritebackPending`]. Fences drain only their own
    /// thread's write-backs (an sfence orders the issuing core's stores;
    /// it says nothing about another core's in-flight write-backs).
    flusher_tid: u32,
}

impl ByteState {
    const EMPTY: ByteState = ByteState {
        tlast: 0,
        tpersist: 0,
        writer: UNTRACKED_WRITER,
        flusher_tid: 0,
    };
}

/// The id of the `<untracked>` writer on thread 0, the first entry of
/// every [`WriterTable`] and the writer of [`ByteState::EMPTY`].
const UNTRACKED_WRITER: u32 = 0;

/// One distinct writer: the source location of a store, allocation or
/// `TX_ADD`, and the thread it is attributed to.
#[derive(Debug, Clone, Copy)]
struct Writer {
    loc: SourceLoc,
    tid: u32,
}

/// A [`Writer`]'s key in [`WriterTable`]: its file name by address and
/// length, its line and its thread. A file name is a `&'static str`, from
/// `file!()` or the leaked, never-freed table of `xftrace::intern_file`,
/// so an address names one unchanging content for the life of the
/// process. Equal contents at two addresses are two writers with one
/// record hash ([`RecordKey::hash`] reads the contents).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
struct WriterKey {
    file: usize,
    len: usize,
    line: u32,
    tid: u32,
}

impl WriterKey {
    fn new(loc: SourceLoc, tid: u32) -> Self {
        WriterKey {
            file: loc.file.as_ptr() as usize,
            len: loc.file.len(),
            line: loc.line,
            tid,
        }
    }
}

/// The distinct writers of one shadow, indexed by the ids its byte
/// records hold. It grows with the distinct (site, thread) pairs of the
/// trace, never with its stores, and ids are never reused, so a
/// checkpoint sharing an older table resolves every id it holds.
#[derive(Debug, Clone)]
struct WriterTable {
    writers: Vec<Writer>,
    ids: HashMap<WriterKey, u32, LineHasher>,
}

impl Default for WriterTable {
    fn default() -> Self {
        let mut table = WriterTable {
            writers: Vec::new(),
            ids: HashMap::default(),
        };
        let untracked = table.push(Writer {
            loc: SourceLoc::synthetic("<untracked>"),
            tid: 0,
        });
        debug_assert_eq!(untracked, UNTRACKED_WRITER);
        table
    }
}

impl WriterTable {
    fn get(&self, id: u32) -> Writer {
        self.writers[id as usize]
    }

    /// Appends a writer not in the table yet and returns its id.
    fn push(&mut self, writer: Writer) -> u32 {
        let id = u32::try_from(self.writers.len()).expect("fewer than 2^32 distinct writers");
        self.writers.push(writer);
        self.ids.insert(WriterKey::new(writer.loc, writer.tid), id);
        id
    }
}

/// The shadow state of one 64-byte cache line as bit-planes: bit `i` of a
/// plane is one fact about byte `i` of the line. `present` marks the
/// tracked bytes, and every other plane is a subset of it. Exactly one of
/// `modified`, `pending` and `persisted` holds for a tracked byte in that
/// [`PersistState`]; none holds for an [`PersistState::Unmodified`] one.
/// The values a bit cannot hold live in `bytes`, meaningful for tracked
/// bytes only.
#[derive(Debug, Clone)]
struct Slab {
    present: u64,
    /// [`PersistState::Modified`]: written but not flushed.
    modified: u64,
    /// [`PersistState::WritebackPending`]: flushed but not fenced.
    pending: u64,
    /// [`PersistState::Persisted`]: flushed and fenced.
    persisted: u64,
    /// Stored to during the pre-failure stage.
    written: u64,
    /// Part of a live allocation.
    allocated: u64,
    /// Part of an allocation the allocator zero-initialized.
    zeroed_alloc: u64,
    /// Protected by the undo-log discipline: `TX_ADD`ed before its last
    /// write, or allocated in a committed transaction.
    tx_protected: u64,
    /// Written inside a transaction without being added to it —
    /// semantically uncommitted data under the transactional discipline.
    unprotected_tx_write: u64,
    /// A fence on a *different* thread ran while the byte's write-back was
    /// pending: its persistence now depends on cross-thread timing, so an
    /// exposed read upgrades to a cross-thread finding.
    xthread: u64,
    /// The last store came from trusted library internals (an atomic
    /// publication, allocator metadata). Exempt from the CXL reorder-window
    /// check, matching the paper's function-granularity treatment of
    /// library code (§5.3).
    writer_internal: u64,
    bytes: [ByteState; LINE as usize],
}

impl Slab {
    const EMPTY: Slab = Slab {
        present: 0,
        modified: 0,
        pending: 0,
        persisted: 0,
        written: 0,
        allocated: 0,
        zeroed_alloc: 0,
        tx_protected: 0,
        unprotected_tx_write: 0,
        xthread: 0,
        writer_internal: 0,
        bytes: [ByteState::EMPTY; LINE as usize],
    };

    /// Every plane, `present` first, for clearing bytes in one place.
    fn planes_mut(&mut self) -> [&mut u64; 11] {
        [
            &mut self.present,
            &mut self.modified,
            &mut self.pending,
            &mut self.persisted,
            &mut self.written,
            &mut self.allocated,
            &mut self.zeroed_alloc,
            &mut self.tx_protected,
            &mut self.unprotected_tx_write,
            &mut self.xthread,
            &mut self.writer_internal,
        ]
    }

    /// Untracks the bytes of `mask`: clears them from every plane.
    fn clear(&mut self, mask: u64) {
        for plane in self.planes_mut() {
            *plane &= !mask;
        }
    }

    /// Persistence state of byte `i` (untracked bytes are
    /// [`PersistState::Unmodified`]).
    fn persist_state(&self, i: usize) -> PersistState {
        let bit = 1u64 << i;
        if self.modified & bit != 0 {
            PersistState::Modified
        } else if self.pending & bit != 0 {
            PersistState::WritebackPending
        } else if self.persisted & bit != 0 {
            PersistState::Persisted
        } else {
            PersistState::Unmodified
        }
    }

    /// Moves every [`PersistState::Modified`] byte to
    /// [`PersistState::WritebackPending`], stamping `tid` as the issuing
    /// thread (the fence that drains these bytes must come from the same
    /// thread).
    fn write_back(&mut self, tid: u32) {
        for i in bits(self.modified) {
            self.bytes[i].flusher_tid = tid;
        }
        self.pending |= self.modified;
        self.modified = 0;
    }
}

/// The offsets of the set bits of `mask`, ascending.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// Bit `i` of `plane` as 0 or 1.
fn bit_of(plane: u64, i: usize) -> u64 {
    (plane >> i) & 1
}

/// The record key of byte `i` of `slab`, whose suspect predicate is `s`
/// (see [`ShadowPm::byte_records`]).
fn record_key(slab: &Slab, s: &Suspects, i: usize) -> RecordKey {
    // The persist code of the per-byte enum this record format was
    // defined over: Unmodified 0, Modified 1, WritebackPending 2,
    // Persisted 3.
    let persist_code =
        bit_of(slab.modified, i) | (bit_of(slab.pending, i) << 1) | (bit_of(slab.persisted, i) * 3);
    let verdict_code = bit_of(s.inconsistent, i) | bit_of(s.consistent, i) << 1;
    let flags = persist_code
        | bit_of(slab.written, i) << 2
        | bit_of(slab.allocated, i) << 3
        | bit_of(slab.zeroed_alloc, i) << 4
        | bit_of(slab.unprotected_tx_write, i) << 5
        | verdict_code << 6
        | bit_of(slab.pending, i) << 8
        | bit_of(s.commit_var, i) << 9
        | bit_of(slab.xthread, i) << 10
        | bit_of(s.buffered, i) << 11;
    let st = &slab.bytes[i];
    RecordKey {
        flags,
        flusher_tid: st.flusher_tid,
        writer: st.writer,
    }
}

/// The suspect predicate of one line over a set of its bytes, one bit per
/// byte (see [`ShadowPm::suspects`]).
#[derive(Debug, Clone, Copy, Default)]
struct Suspects {
    /// Bytes a post-failure read could report: the exact mirror of
    /// `PostChecker::check_read`.
    potential: u64,
    /// Bytes that contribute a fingerprint record: `potential` plus the
    /// written, not yet persisted commit-variable bytes.
    contributes: u64,
    /// Bytes inside a registered commit variable.
    commit_var: u64,
    /// Bytes whose governing commit variable judges them consistent.
    consistent: u64,
    /// Bytes whose governing commit variable judges them inconsistent.
    inconsistent: u64,
    /// Persisted bytes still inside the CXL device's reorder window.
    buffered: u64,
}

/// FNV-1a 64-bit offset basis and prime (the same constants the `.xft`
/// codec and the fuzz campaign digest use).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

fn fnv_u64(h: u64, v: u64) -> u64 {
    fnv_bytes(h, &v.to_le_bytes())
}

/// Folds byte record hashes into one fingerprint: sorted and
/// *deduplicated*, so the result is independent both of which addresses the
/// records live at and of how many identically-shaped bytes exist. Findings
/// are keyed by (kind, reader, writer) source locations, never addresses,
/// so N suspect bytes with identical records have exactly the same finding
/// potential as one — folding the distinct set is what lets a growing
/// structure's failure points (one more node each iteration) collapse into
/// a single class.
fn fold_records(records: &mut Vec<u64>) -> u64 {
    records.sort_unstable();
    records.dedup();
    fold_distinct(records.len(), records.iter().copied())
}

/// The fold behind [`fold_records`], over `count` distinct records given
/// in ascending order.
fn fold_distinct(count: usize, ascending: impl Iterator<Item = u64>) -> u64 {
    ascending.fold(fnv_u64(FNV_OFFSET, count as u64), fnv_u64)
}

/// What a byte record hashes (see [`ShadowPm::byte_records`]): its state
/// flags, its flusher thread, and its writer, an id into the shadow's
/// [`WriterTable`]. The key itself is the record's identity in
/// [`RecordMemo`]: two writer ids are two entries, also where their file
/// names have equal contents and so one hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RecordKey {
    flags: u64,
    flusher_tid: u32,
    writer: u32,
}

impl RecordKey {
    /// The record hash: FNV-1a over the flags, the writer and flusher
    /// threads, the writer's file name *contents* and its line, so it is
    /// stable across processes. Thread facts participate unconditionally:
    /// constant (zero) in single-threaded traces, so classes there are
    /// unaffected, but two crash states differing only in which thread's
    /// fence must still land may report different kinds and must not
    /// collapse.
    fn hash(&self, writers: &WriterTable) -> u64 {
        let writer = writers.get(self.writer);
        let mut h = fnv_u64(FNV_OFFSET, self.flags);
        h = fnv_u64(h, u64::from(writer.tid) << 32 | u64::from(self.flusher_tid));
        h = fnv_bytes(h, writer.loc.file.as_bytes());
        fnv_u64(h, u64::from(writer.loc.line))
    }
}

/// Most records [`RecordMemo`] holds before it starts over. A run of the
/// shipped programs has tens of distinct records, so the memo never
/// clears there; a trace with many writer locations (an upload to the
/// server) costs a re-hash per clear instead of unbounded memory.
const MEMO_RECORDS: usize = 1024;

/// Record hashes by key, so the fingerprint index hashes a writer's file
/// name once per distinct record rather than once per line re-derivation.
/// The hash is a pure function of the key and of the writer table, which
/// only grows, so a memoized value is always the one [`RecordKey::hash`]
/// computes. The memo lives with one shadow's index and is only ever
/// consulted with that shadow's table.
#[derive(Debug, Default)]
struct RecordMemo(HashMap<RecordKey, u64, LineHasher>);

impl RecordMemo {
    fn hash(&mut self, key: RecordKey, writers: &WriterTable) -> u64 {
        if let Some(&h) = self.0.get(&key) {
            return h;
        }
        if self.0.len() >= MEMO_RECORDS {
            self.0.clear();
        }
        let h = key.hash(writers);
        self.0.insert(key, h);
        h
    }
}

/// The incremental fingerprint index (see
/// [`ShadowPm::enable_fingerprinting`]): the distinct record hashes of
/// every suspect line, and how many lines hold each record. The keys of
/// `counts` are exactly the sorted, deduplicated record set
/// [`fold_records`] folds, so a query folds them without touching a byte.
#[derive(Debug, Default)]
struct FpIndex {
    /// Suspect line → its distinct records, ascending (usually 1–3).
    lines: LineMap<Box<[u64]>>,
    /// Record → number of suspect lines holding it.
    counts: BTreeMap<u64, u32>,
    /// The hashes of the records derived so far; kept across re-seeds.
    memo: RecordMemo,
}

impl FpIndex {
    /// Replaces line `li`'s records with `records` (ascending, distinct;
    /// empty when the line is no longer suspect), adjusting the counts by
    /// the difference.
    fn set_line(&mut self, li: u64, records: &[u64]) {
        let old = self.lines.get(&li).map_or(&[][..], |r| &r[..]);
        if old == records {
            return;
        }
        for r in old {
            match self.counts.get_mut(r) {
                Some(n) if *n > 1 => *n -= 1,
                _ => {
                    self.counts.remove(r);
                }
            }
        }
        for &r in records {
            *self.counts.entry(r).or_insert(0) += 1;
        }
        if records.is_empty() {
            self.lines.remove(&li);
        } else {
            self.lines.insert(li, records.into());
        }
    }

    fn fold(&self) -> u64 {
        fold_distinct(self.counts.len(), self.counts.keys().copied())
    }
}

/// Bitmask of bits `0..=i` — the bytes of a line up to and including
/// offset `i`.
fn mask_through(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// Bitmask covering byte offsets `[lo, hi)` of a line (`hi - lo <= 64`).
fn range_mask(lo: u64, hi: u64) -> u64 {
    let len = hi - lo;
    if len >= LINE {
        u64::MAX
    } else {
        ((1u64 << len) - 1) << lo
    }
}

/// Bitmask of the bytes of line `li` inside `[start, end)`.
fn line_span_mask(li: u64, start: u64, end: u64) -> u64 {
    let (lo, hi) = (start.max(li * LINE), end.min((li + 1) * LINE));
    if lo >= hi {
        0
    } else {
        range_mask(lo - li * LINE, hi - li * LINE)
    }
}

/// A registered commit variable (§3.2). `ranges` empty means the variable
/// covers all PM locations (the paper's default).
#[derive(Debug, Clone)]
struct CommitVar {
    addr: u64,
    size: u32,
    ranges: Vec<(u64, u64)>,
    last_commit: Option<u32>,
    prelast_commit: Option<u32>,
    /// Thread that issued the last commit write: governed data written by a
    /// *different* thread makes an inconsistency a cross-thread semantic
    /// bug (the commit publication raced the data writes).
    last_writer_tid: u32,
}

impl CommitVar {
    fn overlaps_own(&self, addr: u64, size: u64) -> bool {
        addr < self.addr + u64::from(self.size) && addr + size > self.addr
    }

    fn explicit_covers(&self, b: u64) -> bool {
        self.ranges.iter().any(|&(a, s)| b >= a && b < a + s)
    }

    /// Equation 3 via the epoch-timestamp scheme: a byte last written at
    /// `tlast` is consistent iff it was written strictly after the pre-last
    /// commit write and strictly before the last commit write (same-epoch
    /// writes are unordered with the commit and therefore not guaranteed).
    fn is_consistent(&self, tlast: u32) -> bool {
        match self.last_commit {
            None => false,
            Some(last) => tlast < last && self.prelast_commit.is_none_or(|p| tlast > p),
        }
    }
}

/// A sorted, coalesced set of half-open `[start, end)` ranges with
/// binary-search membership — the `TX_ADD` bookkeeping used to be a flat
/// `Vec` with O(n) linear-scan lookups on every protected-byte query.
#[derive(Debug, Clone, Default)]
struct RangeSet {
    ranges: Vec<(u64, u64)>,
}

impl RangeSet {
    /// Inserts `[start, end)`, merging overlapping or adjacent ranges.
    fn insert(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        let lo = self.ranges.partition_point(|&(_, e)| e < start);
        let hi = self.ranges.partition_point(|&(s, _)| s <= end);
        if lo == hi {
            self.ranges.insert(lo, (start, end));
        } else {
            let merged = (start.min(self.ranges[lo].0), end.max(self.ranges[hi - 1].1));
            self.ranges.splice(lo..hi, std::iter::once(merged));
        }
    }

    fn contains(&self, b: u64) -> bool {
        let i = self.ranges.partition_point(|&(s, _)| s <= b);
        i > 0 && b < self.ranges[i - 1].1
    }

    fn overlaps(&self, start: u64, end: u64) -> bool {
        let i = self.ranges.partition_point(|&(_, e)| e <= start);
        i < self.ranges.len() && self.ranges[i].0 < end
    }
}

/// Volatile view of the currently active transaction during replay.
#[derive(Debug, Clone, Default)]
struct TxShadow {
    added: RangeSet,
    allocs: RangeSet,
}

impl TxShadow {
    fn protects(&self, b: u64) -> bool {
        self.added.contains(b) || self.allocs.contains(b)
    }

    fn overlaps_added(&self, addr: u64, size: u64) -> bool {
        self.added.overlaps(addr, addr + size)
    }
}

/// The shadow PM, updated by replaying the pre-failure trace.
#[derive(Debug, Default)]
pub struct ShadowPm {
    /// Line index → dense per-line byte states, doubly `Arc`-shared so a
    /// clone is an O(1) checkpoint and mutation faults only touched slabs.
    lines: Arc<LineMap<Arc<Slab>>>,
    /// The writers the byte records' ids index, shared with checkpoints
    /// and copied only when a new writer is interned while one is alive.
    writers: Arc<WriterTable>,
    /// The last writer interned and its id, so a run of stores from one
    /// site on one thread skips the map. The default key's null address
    /// names no file.
    last_writer: (WriterKey, u32),
    /// Lines whose slab has a non-empty `pending` bitmask.
    pending_lines: LineSet,
    /// Global timestamp, incremented after each ordering point (§5.4).
    ts: u32,
    commit_vars: Vec<CommitVar>,
    tx: Option<TxShadow>,
    entries_replayed: u64,
    /// Bytes deep-copied by copy-on-write faults against live checkpoints.
    bytes_cloned: u64,
    /// Incremental record index of the suspect lines (see
    /// [`ShadowPm::enable_fingerprinting`]); `None` until enabled.
    fp: Option<FpIndex>,
    /// The index needs a re-seed: records moved on lines the mutation never
    /// touched (see [`ShadowPm::fp_mark_stale`]).
    fp_stale: bool,
    /// Lines mutated since the last query, whose records the index has not
    /// re-derived yet (see [`ShadowPm::fp_mark_dirty`]).
    fp_dirty: Vec<u64>,
    /// Reusable scratch for one line's records.
    fp_records: Vec<u64>,
    /// The persistence domain findings are classified under. The replay
    /// itself (the FSM transitions) is domain-independent; the domain is
    /// consulted at check time and fingerprint time only, so one recorded
    /// trace can be analyzed under every domain.
    domain: PersistDomain,
}

impl Clone for ShadowPm {
    fn clone(&self) -> Self {
        ShadowPm {
            lines: Arc::clone(&self.lines),
            writers: Arc::clone(&self.writers),
            last_writer: self.last_writer,
            pending_lines: self.pending_lines.clone(),
            ts: self.ts,
            commit_vars: self.commit_vars.clone(),
            tx: self.tx.clone(),
            entries_replayed: self.entries_replayed,
            bytes_cloned: self.bytes_cloned,
            // The fingerprint index is a volatile acceleration structure for
            // the *replaying* shadow only: checkpoints never compute
            // fingerprints, so dropping it keeps `begin_post` lean.
            fp: None,
            fp_stale: false,
            fp_dirty: Vec::new(),
            fp_records: Vec::new(),
            domain: self.domain,
        }
    }
}

impl ShadowPm {
    /// Creates an empty shadow (under the default
    /// [`PersistDomain::Adr`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty shadow classifying findings under `domain`.
    #[must_use]
    pub fn with_domain(domain: PersistDomain) -> Self {
        ShadowPm {
            domain,
            ..Self::default()
        }
    }

    /// The persistence domain this shadow classifies findings under.
    #[must_use]
    pub fn domain(&self) -> PersistDomain {
        self.domain
    }

    /// Current epoch (number of ordering points replayed).
    #[must_use]
    pub fn timestamp(&self) -> u32 {
        self.ts
    }

    /// Number of trace entries replayed so far.
    #[must_use]
    pub fn entries_replayed(&self) -> u64 {
        self.entries_replayed
    }

    /// Bytes deep-copied so far by copy-on-write faults: mutations that hit
    /// a slab (or the line map, or the writer table) still shared with a
    /// live checkpoint.
    /// Zero when every checkpoint is dropped before the next mutation, as in
    /// the sequential engine.
    #[must_use]
    pub fn bytes_cloned(&self) -> u64 {
        self.bytes_cloned
    }

    /// Approximate resident size of the shadow state in bytes — what a
    /// per-failure-point deep copy of the whole map would cost.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.lines.len() as u64 * (SLAB_BYTES + SPINE_ENTRY_BYTES)
    }

    // --- the suspect predicate -------------------------------------------

    /// The tracked bytes of `slab` that a crash at this moment may lose: under
    /// ADR an unpersisted write is lost in some eviction interleaving — the
    /// paper's race condition. Under eADR the platform flushes the caches
    /// on power failure, so a *written* byte always reaches media and the
    /// race vanishes. CXL GPF flushes like eADR, but the flushed line
    /// enters the device's reorder buffer at the failure with no ordering
    /// guarantee — conservatively as exposed as ADR.
    fn lost_mask(&self, slab: &Slab) -> u64 {
        if self.domain == PersistDomain::Eadr {
            0
        } else {
            slab.present & !slab.persisted
        }
    }

    /// The bytes of `within` whose persistence is only *conditional* under
    /// [`PersistDomain::CxlGpf`]: written and explicitly persisted, but
    /// within the device's reorder window — the media commit may still be
    /// reordered or dropped device-side. Library-internal writers (atomic
    /// publications, allocator metadata) are exempt, mirroring the trusted
    /// treatment of library code everywhere else in the checker.
    fn buffered_mask(&self, slab: &Slab, within: u64) -> u64 {
        let PersistDomain::CxlGpf { reorder_window } = self.domain else {
            return 0;
        };
        let candidates = within & slab.persisted & slab.written & !slab.writer_internal;
        bits(candidates)
            .filter(|&i| (self.ts.wrapping_sub(slab.bytes[i].tpersist) as usize) <= reorder_window)
            .fold(0, |m, i| m | 1 << i)
    }

    /// The bytes of line `li` inside a registered commit variable.
    fn commit_var_mask(&self, li: u64) -> u64 {
        self.commit_vars.iter().fold(0, |m, v| {
            m | line_span_mask(li, v.addr, v.addr + u64::from(v.size))
        })
    }

    /// The bytes of line `li` some commit variable governs (see
    /// [`ShadowPm::governing_var`]).
    fn governed_mask(&self, li: u64) -> u64 {
        match self.commit_vars.as_slice() {
            [] => 0,
            [only] if only.ranges.is_empty() => u64::MAX,
            vars => vars
                .iter()
                .flat_map(|v| &v.ranges)
                .fold(0, |m, &(a, s)| m | line_span_mask(li, a, a + s)),
        }
    }

    /// The suspect predicate over the bytes of `within` on line `li`, one
    /// bit per byte. A byte has finding potential — a post-failure read of
    /// it reports, the exact mirror of `PostChecker::check_read` — when it
    /// is allocated but never initialized, or written and exposed: lost,
    /// device-buffered, written in a transaction without `TX_ADD`, or
    /// inconsistent under its governing commit variable. Commit-variable
    /// bytes, `TX_ADD`ed ranges and consistent locations can never be
    /// reported and are excluded, whatever their persistence state.
    ///
    /// A byte contributes a fingerprint record when it has potential or is
    /// a written commit variable that is not yet persisted. Commit-variable
    /// reads are benign, but an in-flight commit write steers recovery
    /// control flow (a persisted valid flag makes recovery walk the
    /// structure, an unpersisted one makes it start over), so two crash
    /// states that differ there must land in different classes.
    ///
    /// Everything is a word operation on the line's planes except two
    /// per-byte steps: the consistency verdict, taken only for the bytes a
    /// commit variable governs, and the CXL reorder-window age.
    fn suspects(&self, li: u64, slab: &Slab, within: u64) -> Suspects {
        let within = within & slab.present;
        if within == 0 {
            // The common case of a read the checker has seen before.
            return Suspects::default();
        }
        let commit_var = self.commit_var_mask(li);
        let uninit = within & slab.allocated & !slab.written & !slab.zeroed_alloc;
        let exposed = within & slab.written & !slab.tx_protected;
        let inflight_commit = within & slab.written & !slab.persisted & commit_var;
        let (mut consistent, mut inconsistent) = (0u64, 0u64);
        for i in bits((uninit | exposed | inflight_commit) & self.governed_mask(li)) {
            let var = self
                .governing_var(li * LINE + i as u64)
                .expect("the governed mask covers only governed bytes");
            if var.is_consistent(slab.bytes[i].tlast) {
                consistent |= 1 << i;
            } else {
                inconsistent |= 1 << i;
            }
        }
        let buffered = self.buffered_mask(slab, exposed);
        let reportable = self.lost_mask(slab) | buffered | slab.unprotected_tx_write | inconsistent;
        let potential = (uninit | exposed & !consistent & reportable) & !commit_var;
        Suspects {
            potential,
            contributes: potential | inflight_commit,
            commit_var,
            consistent,
            inconsistent,
            buffered,
        }
    }

    /// Enables the incremental record index used by
    /// [`ShadowPm::persistence_fingerprint`], seeding it from the current
    /// state. Engines running with pruning enabled call this once before
    /// replay; without the index a fingerprint query falls back to a full
    /// scan of every tracked line.
    ///
    /// The index caches each suspect line's distinct byte records and a
    /// count of how many lines hold each record, so a query folds only the
    /// distinct records. Every mutation of a line's own bytes (write,
    /// flush, fence drain, `TX_ADD`, alloc, free) marks that line dirty
    /// (`fp_mark_dirty`); a commit write marks the lines of the moved
    /// variable's explicit ranges. The next query re-derives each dirty
    /// line's records once, however often it was mutated since. Mutations
    /// whose effect reaches lines they never touch re-seed the whole index
    /// (`fp_mark_stale`). The records and their fold are the ones
    /// [`ShadowPm::fingerprint_from_scratch`] computes, so the values are
    /// identical whichever path produced them.
    pub fn enable_fingerprinting(&mut self) {
        let mut index = FpIndex {
            memo: self.fp.take().map(|index| index.memo).unwrap_or_default(),
            ..FpIndex::default()
        };
        let mut records = std::mem::take(&mut self.fp_records);
        for (&li, slab) in self.lines.iter() {
            self.line_records(li, slab, &mut index.memo, &mut records);
            index.set_line(li, &records);
        }
        self.fp_records = records;
        self.fp = Some(index);
        self.fp_stale = false;
        self.fp_dirty.clear();
    }

    /// Marks line `li`'s records for re-derivation at the next query. No-op
    /// while fingerprinting is disabled or the index awaits a re-seed
    /// anyway. Records are a pure function of the state at query time, so
    /// deferring the re-derivation changes no value.
    ///
    /// The list stays within [`ShadowPm::fp_dirty_bound`]: past it, it is
    /// sorted and deduplicated in place, and if that leaves more than half
    /// the bound (many lines freed since the last query) the lines are
    /// re-derived now.
    fn fp_mark_dirty(&mut self, li: u64) {
        if self.fp.is_none() || self.fp_stale {
            return;
        }
        if self.fp_dirty.last() != Some(&li) {
            self.fp_dirty.push(li);
        }
        // Checked even without a push: freeing a line shrinks the bound.
        let bound = self.fp_dirty_bound();
        if self.fp_dirty.len() > bound {
            self.fp_dirty.sort_unstable();
            self.fp_dirty.dedup();
            if self.fp_dirty.len() > bound / 2 {
                self.fp_refresh();
            }
        }
    }

    /// Most entries the dirty-line list holds between queries: twice the
    /// tracked lines, and never less than 128.
    fn fp_dirty_bound(&self) -> usize {
        2 * self.lines.len().max(64)
    }

    /// [`ShadowPm::fp_mark_dirty`] over lines `first..=last`, walking the
    /// tracked lines instead when the span is wider than the line map.
    fn fp_mark_dirty_lines(&mut self, first: u64, last: u64) {
        if last - first < self.lines.len() as u64 {
            for li in first..=last {
                self.fp_mark_dirty(li);
            }
            return;
        }
        let tracked: Vec<u64> = self
            .lines
            .keys()
            .copied()
            .filter(|li| (first..=last).contains(li))
            .collect();
        for li in tracked {
            self.fp_mark_dirty(li);
        }
    }

    /// Re-derives the index records of every dirty line, once each, and
    /// empties the list.
    fn fp_refresh(&mut self) {
        let mut dirty = std::mem::take(&mut self.fp_dirty);
        dirty.sort_unstable();
        dirty.dedup();
        let mut records = std::mem::take(&mut self.fp_records);
        let mut index = self
            .fp
            .take()
            .expect("lines are marked dirty only while indexing");
        for &li in &dirty {
            match self.lines.get(&li) {
                Some(slab) => self.line_records(li, slab, &mut index.memo, &mut records),
                None => records.clear(),
            }
            index.set_line(li, &records);
        }
        self.fp = Some(index);
        self.fp_records = records;
        dirty.clear();
        self.fp_dirty = dirty;
    }

    /// A commit write moved the variables overlapping `[addr, addr +
    /// size)`: the consistency verdict of every byte they govern may have
    /// flipped. A variable with explicit ranges governs only those, so only
    /// their lines are marked dirty. The sole range-less variable governs all
    /// of PM, so moving it re-seeds the whole index.
    fn fp_commit_moved(&mut self, addr: u64, size: u64) {
        if let [only] = self.commit_vars.as_slice() {
            if only.ranges.is_empty() {
                self.fp_mark_stale();
                return;
            }
        }
        for vi in 0..self.commit_vars.len() {
            if !self.commit_vars[vi].overlaps_own(addr, size) {
                continue;
            }
            for ri in 0..self.commit_vars[vi].ranges.len() {
                let (a, s) = self.commit_vars[vi].ranges[ri];
                if s > 0 {
                    self.fp_mark_dirty_lines(a / LINE, (a + s - 1) / LINE);
                }
            }
        }
    }

    /// Marks the whole index stale, to be re-seeded at the next fingerprint
    /// query: a commit-variable registration, a write to the sole
    /// range-less commit variable, or a CXL fence (which ages persisted
    /// bytes out of the reorder window everywhere) changed records on lines
    /// the mutation never touched. Until the re-seed, no line is marked
    /// dirty.
    fn fp_mark_stale(&mut self) {
        if self.fp.is_some() {
            self.fp_stale = true;
        }
    }

    /// FNV-1a fingerprint of the persistence state a crash at this point
    /// exposes to recovery — the equivalence-class key of the pruning layer.
    ///
    /// The fingerprint deliberately abstracts *addresses*: pool allocators
    /// hand every loop iteration fresh lines, so a key over raw line ids
    /// would never repeat. Instead every byte with finding potential
    /// (`ShadowPm::suspects`, the exact mirror of the post-failure read
    /// checker) contributes a record hash over its state
    /// flags, commit-variable consistency verdict and writer source location
    /// (file *contents*, not interned pointers, so fingerprints are stable
    /// across processes); the fingerprint folds the *distinct* record hashes
    /// in sorted order plus their count. Two failure points with equal
    /// fingerprints present recovery with the same set of reportable
    /// (kind, writer) outcomes, wherever it reads them — any novel in-flight
    /// writer location forces a new class.
    ///
    /// With the index enabled a query costs one re-derivation per line
    /// mutated since the last query plus O(distinct records), whatever the
    /// number of suspect bytes.
    #[must_use]
    pub fn persistence_fingerprint(&mut self) -> u64 {
        if self.fp_stale {
            self.enable_fingerprinting();
        } else if !self.fp_dirty.is_empty() {
            self.fp_refresh();
        }
        match &self.fp {
            Some(index) => self.fold_domain(index.fold()),
            None => self.fingerprint_from_scratch(),
        }
    }

    /// Folds the persistence domain into a finished fingerprint: two crash
    /// states with identical byte records may still report differently
    /// under different domains, so classes must not collapse across them.
    /// [`PersistDomain::Adr`] is the identity, keeping every ADR
    /// fingerprint byte-identical to the pre-domain ones.
    fn fold_domain(&self, h: u64) -> u64 {
        match self.domain {
            PersistDomain::Adr => h,
            PersistDomain::Eadr => fnv_u64(h, 1),
            PersistDomain::CxlGpf { reorder_window } => {
                fnv_u64(fnv_u64(h, 2), reorder_window as u64)
            }
        }
    }

    /// [`ShadowPm::persistence_fingerprint`] computed by scanning every
    /// tracked line, ignoring the incremental index and hashing every
    /// record afresh, without the memo — the ground truth the index is
    /// tested against.
    #[must_use]
    pub fn fingerprint_from_scratch(&self) -> u64 {
        let mut records = Vec::new();
        for (&li, slab) in self.lines.iter() {
            self.byte_records(li, slab, None, &mut records);
        }
        self.fold_domain(fold_records(&mut records))
    }

    /// Line `li`'s distinct records, ascending, into `out` (cleared first),
    /// hashed through `memo`.
    fn line_records(&self, li: u64, slab: &Slab, memo: &mut RecordMemo, out: &mut Vec<u64>) {
        out.clear();
        self.byte_records(li, slab, Some(memo), out);
        out.sort_unstable();
        out.dedup();
    }

    /// Appends the record hash of every contributing byte of line `li` (see
    /// [`ShadowPm::suspects`]): the byte's state flags, consistency verdict
    /// and writer source location. Neither the line id nor the in-line
    /// offset participates (see [`ShadowPm::persistence_fingerprint`]) — a
    /// finding is identified by (kind, reader, writer) locations alone, so
    /// two bytes with equal records have equal finding potential wherever
    /// they live.
    ///
    /// A run of adjacent contributing bytes with equal records is hashed
    /// and appended once; callers deduplicate the rest. A byte starts a run
    /// where a plane that enters its flags flips against the byte before
    /// (`p ^ p << 1`, one word operation per plane), or where its writer
    /// id or flusher thread differs. Only the run starts build a flags
    /// word, and `memo`, when given, hashes each distinct record once.
    fn byte_records(
        &self,
        li: u64,
        slab: &Slab,
        mut memo: Option<&mut RecordMemo>,
        out: &mut Vec<u64>,
    ) {
        let s = self.suspects(li, slab, u64::MAX);
        // `written` is left out: on a contributing byte it holds exactly
        // when the byte is not Unmodified (the one unwritten contributor is
        // an uninitialized allocation), so it flips only where a
        // persistence plane does.
        let planes = [
            s.contributes,
            slab.modified,
            slab.pending,
            slab.persisted,
            slab.allocated,
            slab.zeroed_alloc,
            slab.unprotected_tx_write,
            s.inconsistent,
            s.consistent,
            s.commit_var,
            slab.xthread,
            s.buffered,
        ];
        let mut starts = planes.iter().fold(0, |m, &p| m | (p ^ p << 1));
        // Bit 0 of `contributes` is a start, so `i - 1` is a contributing
        // byte of the same run so far.
        for i in bits(s.contributes & !starts) {
            let (prev, st) = (&slab.bytes[i - 1], &slab.bytes[i]);
            if prev.writer != st.writer || prev.flusher_tid != st.flusher_tid {
                starts |= 1 << i;
            }
        }
        for i in bits(s.contributes & starts) {
            let key = record_key(slab, &s, i);
            out.push(match memo.as_deref_mut() {
                Some(memo) => memo.hash(key, &self.writers),
                None => key.hash(&self.writers),
            });
        }
    }

    /// Detaches the line map from any shared checkpoint, accounting the
    /// spine copy.
    fn detach_spine(&mut self) {
        if Arc::strong_count(&self.lines) > 1 {
            self.bytes_cloned += self.lines.len() as u64 * SPINE_ENTRY_BYTES;
            let _ = Arc::make_mut(&mut self.lines);
        }
    }

    /// Mutable access to the slab of line `li`, creating it if absent and
    /// faulting (deep-copying) it if shared with a checkpoint.
    fn slab_mut(&mut self, li: u64) -> &mut Slab {
        self.detach_spine();
        if self
            .lines
            .get(&li)
            .is_some_and(|s| Arc::strong_count(s) > 1)
        {
            self.bytes_cloned += SLAB_BYTES;
        }
        let map = Arc::make_mut(&mut self.lines);
        Arc::make_mut(map.entry(li).or_insert_with(|| Arc::new(Slab::EMPTY)))
    }

    /// The id of writer `(loc, tid)`, interning it on first sight: through
    /// the last-writer cache, then the table's map. A new writer copies
    /// the table if a checkpoint shares it, accounting the copy.
    fn writer_id(&mut self, loc: SourceLoc, tid: u32) -> u32 {
        let key = WriterKey::new(loc, tid);
        if self.last_writer.0 == key {
            return self.last_writer.1;
        }
        let id = match self.writers.ids.get(&key) {
            Some(&id) => id,
            None => {
                if Arc::strong_count(&self.writers) > 1 {
                    self.bytes_cloned += self.writers.writers.len() as u64 * WRITER_ENTRY_BYTES;
                }
                Arc::make_mut(&mut self.writers).push(Writer { loc, tid })
            }
        };
        self.last_writer = (key, id);
        id
    }

    /// As [`ShadowPm::slab_mut`] but never creates an absent slab.
    fn slab_mut_existing(&mut self, li: u64) -> Option<&mut Slab> {
        if !self.lines.contains_key(&li) {
            return None;
        }
        Some(self.slab_mut(li))
    }

    /// Persistence state of `addr` (bytes never touched are
    /// [`PersistState::Unmodified`]).
    #[must_use]
    pub fn persist_state(&self, addr: u64) -> PersistState {
        self.lines
            .get(&(addr / LINE))
            .map_or(PersistState::Unmodified, |slab| {
                slab.persist_state((addr % LINE) as usize)
            })
    }

    /// Whether every byte of the range is guaranteed persistent or was never
    /// modified.
    #[must_use]
    pub fn is_range_persisted(&self, addr: u64, size: u64) -> bool {
        if size == 0 {
            return true;
        }
        // One map lookup per covered line, then one mask test: a byte is
        // non-persisted iff it is `Modified` or `WritebackPending`.
        let (first, last) = (addr / LINE, (addr + size - 1) / LINE);
        (first..=last).all(|li| {
            self.lines.get(&li).is_none_or(|slab| {
                (slab.modified | slab.pending) & line_span_mask(li, addr, addr + size) == 0
            })
        })
    }

    /// Replays one pre-failure trace entry, appending any performance-bug or
    /// annotation findings to `out`.
    pub fn apply_pre(&mut self, e: &TraceEntry, out: &mut DetectionReport) {
        self.entries_replayed += 1;
        match e.op {
            Op::Write { addr, size } => {
                self.on_write(addr, u64::from(size), e.loc, e.tid, false, e.internal);
            }
            Op::NtWrite { addr, size } => {
                self.on_write(addr, u64::from(size), e.loc, e.tid, true, e.internal);
            }
            Op::Flush { addr, .. } => self.on_flush(addr, e.loc, e.checked, e.tid, out),
            Op::Fence { .. } => self.on_fence(e.tid),
            Op::Read { .. } => {}
            Op::TxBegin => {
                self.tx = Some(TxShadow::default());
            }
            Op::TxAdd { addr, size } => {
                self.on_tx_add(addr, u64::from(size), e.loc, e.checked, out)
            }
            Op::TxCommit | Op::TxAbort => {
                self.tx = None;
            }
            Op::Alloc { addr, size, zeroed } => self.on_alloc(addr, u64::from(size), zeroed, e.loc),
            Op::Free { addr, size } => self.on_free(addr, u64::from(size)),
            Op::RegisterCommitVar { addr, size } => self.on_register_var(addr, size),
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
        tid: u32,
        non_temporal: bool,
        internal: bool,
    ) {
        // Commit-write bookkeeping: one commit event per overlapping
        // variable per store (§3.2, the Cx notation).
        let ts = self.ts;
        let mut commit_moved = false;
        for var in &mut self.commit_vars {
            if var.overlaps_own(addr, size) {
                var.prelast_commit = var.last_commit;
                var.last_commit = Some(ts);
                var.last_writer_tid = tid;
                commit_moved = true;
            }
        }
        if commit_moved {
            // Every governed byte's consistency verdict may have flipped,
            // on lines this store never touches.
            self.fp_commit_moved(addr, size);
        }
        let writer = self.writer_id(loc, tid);
        let in_tx = self.tx.is_some();
        let protected = match &self.tx {
            Some(tx) => (addr..addr + size).all(|b| tx.protects(b)),
            None => false,
        };
        let end = addr + size;
        let mut b = addr;
        while b < end {
            let li = b / LINE;
            let chunk_end = end.min((li + 1) * LINE);
            let (lo, hi) = ((b - li * LINE) as usize, (chunk_end - li * LINE) as usize);
            let mask = range_mask(lo as u64, hi as u64);
            // Per-byte protection must be resolved before the slab borrow.
            let prot_mask = match (&self.tx, protected) {
                (Some(tx), false) => (b..chunk_end)
                    .filter(|&x| tx.protects(x))
                    .fold(0, |m, x| m | 1 << (x % LINE)),
                _ => u64::MAX,
            };
            let slab = self.slab_mut(li);
            let fresh = mask & !slab.present;
            for (i, st) in slab.bytes[lo..hi].iter_mut().enumerate() {
                if fresh & 1 << (lo + i) != 0 {
                    *st = ByteState::EMPTY;
                }
                st.tlast = ts;
                st.writer = writer;
                if non_temporal {
                    st.flusher_tid = tid;
                }
            }
            slab.present |= mask;
            slab.modified &= !mask;
            slab.pending &= !mask;
            slab.persisted &= !mask;
            if non_temporal {
                slab.pending |= mask;
            } else {
                slab.modified |= mask;
            }
            slab.written |= mask;
            slab.xthread &= !mask;
            slab.writer_internal &= !mask;
            if internal {
                slab.writer_internal |= mask;
            }
            slab.tx_protected &= !mask;
            slab.unprotected_tx_write &= !mask;
            if in_tx {
                slab.tx_protected |= mask & prot_mask;
                slab.unprotected_tx_write |= mask & !prot_mask;
            }
            if slab.pending != 0 {
                self.pending_lines.insert(li);
            } else {
                self.pending_lines.remove(&li);
            }
            self.fp_mark_dirty(li);
            b = chunk_end;
        }
        if non_temporal {
            // An NT store snoops the cache: a hit on a modified line forces
            // that line to be written back and invalidated (Intel SDM), so
            // earlier plain stores to the covered lines become
            // writeback-pending and persist at the same fence.
            let first_line = addr / LINE;
            let last_line = (addr + size - 1) / LINE;
            for li in first_line..=last_line {
                if self.lines.get(&li).is_none_or(|slab| slab.modified == 0) {
                    continue;
                }
                self.slab_mut(li).write_back(tid);
                self.pending_lines.insert(li);
                self.fp_mark_dirty(li);
            }
        }
    }

    fn on_flush(
        &mut self,
        addr: u64,
        loc: SourceLoc,
        checked: bool,
        tid: u32,
        out: &mut DetectionReport,
    ) {
        let li = addr / LINE;
        // Read-only probe first: a redundant flush must not fault the slab.
        if self.lines.get(&li).is_some_and(|slab| slab.modified != 0) {
            self.slab_mut(li).write_back(tid);
            self.pending_lines.insert(li);
            // Membership is unchanged, but the records are not: the persist
            // code and the pending bit both moved.
            self.fp_mark_dirty(li);
        } else if checked {
            // Yellow edges of Figure 9: flushing a line with no modified
            // data is wasted work.
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

    /// An ordering point on thread `tid`. The fence drains exactly the
    /// write-backs *its own thread* issued: an sfence orders the issuing
    /// core's stores and flushes, but guarantees nothing about another
    /// core's in-flight write-backs. Foreign pending bytes survive the
    /// fence and are marked in `Slab::xthread` — their persistence now
    /// depends on cross-thread timing, the condition the cross-thread bug
    /// kinds report. With every operation on thread 0 (the single-threaded
    /// case) this is exactly the classic drain-everything fence.
    fn on_fence(&mut self, tid: u32) {
        if matches!(self.domain, PersistDomain::CxlGpf { .. }) {
            // Advancing the epoch ages persisted bytes out of the reorder
            // window on lines this fence never drained: the index cannot be
            // patched line by line.
            self.fp_mark_stale();
        }
        let ts = self.ts;
        let lines: Vec<u64> = self.pending_lines.iter().copied().collect();
        for li in lines {
            let Some(slab) = self.slab_mut_existing(li) else {
                self.pending_lines.remove(&li);
                continue;
            };
            let mut drained = 0u64;
            for i in bits(slab.pending) {
                if slab.bytes[i].flusher_tid == tid {
                    slab.bytes[i].tpersist = ts;
                    drained |= 1 << i;
                }
            }
            slab.xthread |= slab.pending & !drained;
            slab.pending &= !drained;
            slab.persisted |= drained;
            if slab.pending == 0 {
                self.pending_lines.remove(&li);
            }
            self.fp_mark_dirty(li);
        }
        self.ts += 1;
    }

    fn on_tx_add(
        &mut self,
        addr: u64,
        size: u64,
        loc: SourceLoc,
        checked: bool,
        out: &mut DetectionReport,
    ) {
        if self.tx.is_none() {
            return; // library rejects this; nothing to track
        }
        if self
            .tx
            .as_ref()
            .is_some_and(|tx| tx.overlaps_added(addr, size))
            && checked
        {
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
        if let Some(tx) = self.tx.as_mut() {
            tx.added.insert(addr, addr + size);
        }
        // The snapshot makes the current contents recoverable: the range is
        // consistent from here on (the PMTest-style handling of §5.4).
        // Exception: bytes already written inside this transaction *before*
        // being added — the snapshot captures the modified data, so rolling
        // back restores a potentially inconsistent value; they stay flagged.
        // Untracked bytes start tracked, protected and unwritten.
        let fresh = ByteState {
            tlast: self.ts,
            writer: self.writer_id(loc, 0),
            ..ByteState::EMPTY
        };
        let end = addr + size;
        let mut b = addr;
        while b < end {
            let li = b / LINE;
            let chunk_end = end.min((li + 1) * LINE);
            let mask = line_span_mask(li, b, chunk_end);
            let slab = self.slab_mut(li);
            for i in bits(mask & !slab.present) {
                slab.bytes[i] = fresh;
            }
            slab.present |= mask;
            slab.tx_protected |= mask & !slab.unprotected_tx_write;
            // Newly protected bytes lose their finding potential.
            self.fp_mark_dirty(li);
            b = chunk_end;
        }
    }

    fn on_alloc(&mut self, addr: u64, size: u64, zeroed: bool, loc: SourceLoc) {
        let fresh = ByteState {
            tlast: self.ts,
            writer: self.writer_id(loc, 0),
            ..ByteState::EMPTY
        };
        let end = addr + size;
        let mut b = addr;
        while b < end {
            let li = b / LINE;
            let chunk_end = end.min((li + 1) * LINE);
            let (lo, hi) = ((b - li * LINE) as usize, (chunk_end - li * LINE) as usize);
            let mask = range_mask(lo as u64, hi as u64);
            let pending_now = {
                let slab = self.slab_mut(li);
                slab.bytes[lo..hi].fill(fresh);
                slab.clear(mask);
                slab.present |= mask;
                slab.allocated |= mask;
                if zeroed {
                    // The allocator's zeroing is durable: Persisted.
                    slab.persisted |= mask;
                    slab.zeroed_alloc |= mask;
                }
                slab.pending
            };
            if pending_now == 0 {
                self.pending_lines.remove(&li);
            }
            self.fp_mark_dirty(li);
            b = chunk_end;
        }
        if let Some(tx) = self.tx.as_mut() {
            tx.allocs.insert(addr, addr + size);
        }
    }

    fn on_free(&mut self, addr: u64, size: u64) {
        let end = addr + size;
        let mut b = addr;
        while b < end {
            let li = b / LINE;
            let chunk_end = end.min((li + 1) * LINE);
            let mask = line_span_mask(li, b, chunk_end);
            let Some(slab) = self.lines.get(&li) else {
                b = chunk_end;
                continue;
            };
            if slab.present & !mask == 0 {
                // The whole slab dies: drop the Arc instead of faulting it.
                self.detach_spine();
                Arc::make_mut(&mut self.lines).remove(&li);
                self.pending_lines.remove(&li);
            } else if slab.present & mask != 0 {
                let slab = self.slab_mut(li);
                slab.clear(mask);
                if slab.pending == 0 {
                    self.pending_lines.remove(&li);
                }
            }
            self.fp_mark_dirty(li);
            b = chunk_end;
        }
    }

    fn on_register_var(&mut self, addr: u64, size: u32) {
        if self.commit_vars.iter().any(|v| v.addr == addr) {
            return; // idempotent re-registration
        }
        self.commit_vars.push(CommitVar {
            addr,
            size,
            ranges: Vec::new(),
            last_commit: None,
            prelast_commit: None,
            last_writer_tid: 0,
        });
        // Registration changes which bytes are governed (and which are
        // benign commit-variable bytes) everywhere.
        self.fp_mark_stale();
    }

    fn on_register_range(
        &mut self,
        var_addr: u64,
        addr: u64,
        size: u64,
        loc: SourceLoc,
        out: &mut DetectionReport,
    ) {
        let overlap = self.commit_vars.iter().any(|v| {
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
        match self.commit_vars.iter_mut().find(|v| v.addr == var_addr) {
            Some(var) => {
                var.ranges.push((addr, size));
                self.fp_mark_stale();
            }
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

    /// The commit variable governing `b`: an explicit range covering `b`
    /// wins; otherwise, per the paper's default rule ("if there is only one
    /// commit variable and no object is specified, it covers all PM
    /// locations"), the sole registered variable when it is range-less.
    /// With several variables, range-less ones still mark their own reads
    /// benign but govern no other locations.
    fn governing_var(&self, b: u64) -> Option<&CommitVar> {
        if let Some(v) = self.commit_vars.iter().find(|v| v.explicit_covers(b)) {
            return Some(v);
        }
        match self.commit_vars.as_slice() {
            [only] if only.ranges.is_empty() => Some(only),
            _ => None,
        }
    }

    /// Checkpoints the shadow into a checker for one post-failure execution.
    /// An O(1) copy-on-write clone: no per-byte state is copied until the
    /// pre-failure replay mutates a line while this checkpoint is alive.
    #[must_use]
    pub fn begin_post(&self, first_read_only: bool) -> PostChecker {
        PostChecker {
            shadow: self.clone(),
            post_written: LineMap::default(),
            checked_reads: LineMap::default(),
            first_read_only,
        }
    }

    /// Whether replaying a post-failure trace with read index `index`
    /// against this shadow can report anything: whether some byte the trace
    /// may check has finding potential (`ShadowPm::suspects`, the exact
    /// mirror of `PostChecker::check_read`). `false` proves the replay
    /// finds nothing, under `first_read_only` or not.
    ///
    /// A fresh fingerprint index (no dirty lines, not stale) prefilters by
    /// line: its keys are the lines holding a contributing byte, a superset
    /// of the lines holding a byte with potential. A stale or dirty index
    /// may miss a line that became suspect since the last query, so then
    /// the predicate runs on every line the trace reads.
    #[must_use]
    pub fn may_find(&self, index: &ReadIndex) -> bool {
        let suspect = self.fresh_fp_index().map(|fp| &fp.lines);
        index.lines.iter().any(|&(li, mask)| {
            if suspect.is_some_and(|s| !s.contains_key(&li)) {
                return false;
            }
            self.lines
                .get(&li)
                .is_some_and(|slab| self.suspects(li, slab, mask).potential != 0)
        })
    }

    /// The fingerprint index, when it is enabled and reflects the current
    /// state: no line awaits re-derivation and no re-seed is pending.
    fn fresh_fp_index(&self) -> Option<&FpIndex> {
        self.fp
            .as_ref()
            .filter(|_| !self.fp_stale && self.fp_dirty.is_empty())
    }
}

/// The bytes a post-failure trace's checked reads may check, by line: each
/// read chunk's mask minus the bytes the trace wrote before the read
/// (`PostChecker` skips those). It depends on the trace alone, so it is
/// built once per trace and serves every failure point that replays it
/// ([`ShadowPm::may_find`]).
#[derive(Debug, Default)]
pub struct ReadIndex {
    /// `(line, mask)`, one entry per line read.
    lines: Box<[(u64, u64)]>,
}

impl ReadIndex {
    /// Indexes the checked reads of the post-failure trace `post`.
    #[must_use]
    pub fn new(post: &[TraceEntry]) -> Self {
        let mut written: LineMap<u64> = LineMap::default();
        let mut read: LineMap<u64> = LineMap::default();
        for e in post {
            let (addr, size, is_read) = match e.op {
                Op::Read { addr, size } if e.checked => (addr, u64::from(size), true),
                Op::Write { addr, size } | Op::NtWrite { addr, size } => {
                    (addr, u64::from(size), false)
                }
                Op::Alloc {
                    addr,
                    size,
                    zeroed: true,
                } => (addr, u64::from(size), false),
                _ => continue,
            };
            let end = addr + size;
            let mut b = addr;
            while b < end {
                let li = b / LINE;
                let chunk_end = end.min((li + 1) * LINE);
                let mask = range_mask(b - li * LINE, chunk_end - li * LINE);
                b = chunk_end;
                if is_read {
                    let fresh = mask & !written.get(&li).copied().unwrap_or(0);
                    if fresh != 0 {
                        *read.entry(li).or_insert(0) |= fresh;
                    }
                } else {
                    *written.entry(li).or_insert(0) |= mask;
                }
            }
        }
        ReadIndex {
            lines: read.into_iter().collect(),
        }
    }
}

/// Replays a post-failure trace against a snapshot of the shadow PM,
/// reporting cross-failure bugs (§5.4 "Post-failure Trace").
///
/// Both bookkeeping sets are line-keyed 64-bit masks rather than per-byte
/// hash sets: a post-failure write marks a whole line chunk with one map
/// probe, and a checked read intersects candidate masks
/// (`fresh & !post_written & present`) before touching any per-byte state.
#[derive(Debug)]
pub struct PostChecker {
    shadow: ShadowPm,
    /// Line → mask of bytes overwritten by the post-failure stage: reading
    /// them afterwards is consistent by construction.
    post_written: LineMap<u64>,
    /// Line → mask of bytes already checked in this post-failure run (§5.4
    /// optimization 1: only the first read of a location needs checking).
    checked_reads: LineMap<u64>,
    first_read_only: bool,
}

impl PostChecker {
    /// Replays one post-failure entry, appending findings to `out`.
    pub fn apply_post(&mut self, e: &TraceEntry, fp: FailurePoint, out: &mut DetectionReport) {
        match e.op {
            Op::Read { addr, size }
                if e.checked => {
                    self.check_read(addr, u64::from(size), e.loc, fp, out);
                }
            Op::Write { addr, size } | Op::NtWrite { addr, size } => {
                // Post-failure writes overwrite the old data: the location
                // becomes consistent; any inconsistency introduced *now* is
                // tested when this code later runs as the pre-failure stage.
                self.mark_written(addr, u64::from(size));
            }
            Op::Alloc { addr, size, zeroed }
                // Fresh post-failure allocations are defined by the post
                // stage itself.
                if zeroed => {
                    self.mark_written(addr, u64::from(size));
                }
            // Flushes/fences in the post stage cannot un-lose pre-failure
            // data; transaction and registration events do not affect
            // checking.
            _ => {}
        }
    }

    /// Marks `[addr, addr + size)` as overwritten by the post stage: one
    /// mask OR per covered line.
    fn mark_written(&mut self, addr: u64, size: u64) {
        if size == 0 {
            return;
        }
        let end = addr + size;
        let mut b = addr;
        while b < end {
            let li = b / LINE;
            let chunk_end = end.min((li + 1) * LINE);
            *self.post_written.entry(li).or_insert(0) |=
                range_mask(b - li * LINE, chunk_end - li * LINE);
            b = chunk_end;
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
        if size == 0 {
            return;
        }
        let mut reported = false;
        let end = addr + size;
        let mut b = addr;
        while b < end {
            let li = b / LINE;
            let chunk_end = end.min((li + 1) * LINE);
            let chunk_mask = range_mask(b - li * LINE, chunk_end - li * LINE);
            b = chunk_end;
            // Mark the whole chunk checked up front (the per-byte checker
            // marked every iterated byte, findings or not); keep the prior
            // mask for the semantic-bug early return, which must leave the
            // bytes *after* the finding unmarked.
            let (prev, fresh) = if self.first_read_only {
                let entry = self.checked_reads.entry(li).or_insert(0);
                let prev = *entry;
                *entry |= chunk_mask;
                (prev, chunk_mask & !prev)
            } else {
                (0, chunk_mask)
            };
            if reported {
                continue; // one finding per read access; still mark checked
            }
            let Some(slab) = self.shadow.lines.get(&li) else {
                continue; // never touched pre-failure
            };
            // Candidate bytes: not yet checked, not overwritten
            // post-failure. The first of them with finding potential is the
            // one the access reports; the others are clean.
            let cand = fresh & !self.post_written.get(&li).copied().unwrap_or(0);
            let suspects = self.shadow.suspects(li, slab, cand);
            if suspects.potential == 0 {
                continue;
            }
            let i = suspects.potential.trailing_zeros() as usize;
            let byte_addr = li * LINE + i as u64;
            let writer = self.shadow.writers.get(slab.bytes[i].writer);
            let finding = |kind, message: Option<&str>| Finding {
                kind,
                addr: byte_addr,
                size: 1,
                reader: Some(loc),
                writer: Some(writer.loc),
                failure_point: Some(fp),
                message: message.map(str::to_owned),
            };
            if bit_of(slab.written, i) == 0 {
                out.push(finding(
                    BugKind::UninitializedRace,
                    Some("post-failure read of allocated but never-initialized memory"),
                ));
                reported = true; // one finding per read access
                continue;
            }
            let xthread = bit_of(slab.xthread, i) != 0;
            if bit_of(self.shadow.lost_mask(slab), i) != 0 {
                // A pending byte that survived a *foreign* fence is not
                // just unordered with the failure: its persistence
                // depends on which thread's fence the crash beat.
                out.push(if xthread {
                    finding(
                        BugKind::CrossThreadRace,
                        Some("write-back persisted only via another thread's fence"),
                    )
                } else {
                    finding(BugKind::CrossFailureRace, None)
                });
                reported = true;
                continue;
            }
            if bit_of(suspects.buffered, i) != 0 {
                // Persisted, but inside the CXL device's reorder window at
                // the failure: the media commit is not yet ordered, so the
                // read races the device exactly as an unflushed store races
                // the cache under ADR.
                out.push(if xthread {
                    finding(
                        BugKind::CrossThreadRace,
                        Some("device-buffered write persisted only via another thread's fence"),
                    )
                } else {
                    finding(
                        BugKind::CrossFailureRace,
                        Some("write still in the device reorder window at the failure"),
                    )
                });
                reported = true;
                continue;
            }
            // Inconsistent under its commit variable, or written in a
            // transaction without `TX_ADD`.
            if self.first_read_only {
                // The per-byte checker returned here before marking the
                // remaining bytes of the access: roll the chunk's mark back
                // to the bytes up to and including the finding.
                *self.checked_reads.entry(li).or_insert(0) = prev | (chunk_mask & mask_through(i));
            }
            // Commit published by one thread, governed data written by
            // another: the inconsistency is a cross-thread ordering
            // violation, not a single-thread one.
            let cross_thread = self
                .shadow
                .governing_var(byte_addr)
                .is_some_and(|v| v.last_writer_tid != writer.tid);
            out.push(if cross_thread {
                finding(
                    BugKind::CrossThreadSemantic,
                    Some("commit variable published by a different thread than the data writer"),
                )
            } else {
                finding(BugKind::CrossFailureSemantic, None)
            });
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xftrace::{FenceKind, FlushKind, Stage};

    fn loc(line: u32) -> SourceLoc {
        SourceLoc { file: "t.rs", line }
    }

    fn entry(op: Op, line: u32) -> TraceEntry {
        TraceEntry::new(op, loc(line), Stage::Pre, false, true)
    }

    fn fp() -> FailurePoint {
        FailurePoint {
            id: 0,
            loc: loc(999),
        }
    }

    fn write(a: u64, s: u32, line: u32) -> TraceEntry {
        entry(Op::Write { addr: a, size: s }, line)
    }

    fn flush(a: u64, line: u32) -> TraceEntry {
        entry(
            Op::Flush {
                addr: a,
                kind: FlushKind::Clwb,
            },
            line,
        )
    }

    fn fence(line: u32) -> TraceEntry {
        entry(
            Op::Fence {
                kind: FenceKind::Sfence,
            },
            line,
        )
    }

    fn read(a: u64, s: u32, line: u32) -> TraceEntry {
        TraceEntry::new(
            Op::Read { addr: a, size: s },
            loc(line),
            Stage::Post,
            false,
            true,
        )
    }

    fn replay(shadow: &mut ShadowPm, entries: &[TraceEntry]) -> DetectionReport {
        let mut out = DetectionReport::new();
        for e in entries {
            shadow.apply_pre(e, &mut out);
        }
        out
    }

    const A: u64 = 0x1000;

    #[test]
    fn persistence_fsm_write_flush_fence() {
        let mut s = ShadowPm::new();
        let mut out = DetectionReport::new();
        s.apply_pre(&write(A, 8, 1), &mut out);
        assert_eq!(s.persist_state(A), PersistState::Modified);
        s.apply_pre(&flush(A, 2), &mut out);
        assert_eq!(s.persist_state(A), PersistState::WritebackPending);
        s.apply_pre(&fence(3), &mut out);
        assert_eq!(s.persist_state(A), PersistState::Persisted);
        assert!(s.is_range_persisted(A, 8));
        assert_eq!(s.timestamp(), 1);
        assert!(out.is_empty());
    }

    #[test]
    fn rewrite_after_flush_goes_back_to_modified() {
        let mut s = ShadowPm::new();
        let _ = replay(&mut s, &[write(A, 8, 1), flush(A, 2), write(A, 8, 3)]);
        assert_eq!(s.persist_state(A), PersistState::Modified);
        let mut out = DetectionReport::new();
        s.apply_pre(&fence(4), &mut out);
        assert_eq!(
            s.persist_state(A),
            PersistState::Modified,
            "fence does not persist re-dirtied data"
        );
    }

    #[test]
    fn non_persisted_read_is_a_race() {
        let mut s = ShadowPm::new();
        let _ = replay(&mut s, &[write(A, 8, 10)]);
        let mut post = s.begin_post(true);
        let mut out = DetectionReport::new();
        post.apply_post(&read(A, 8, 20), fp(), &mut out);
        assert_eq!(out.race_count(), 1);
        let f = &out.findings()[0];
        assert_eq!(f.kind, BugKind::CrossFailureRace);
        assert_eq!(f.reader.unwrap().line, 20);
        assert_eq!(f.writer.unwrap().line, 10);
    }

    #[test]
    fn persisted_read_is_clean_without_semantics() {
        let mut s = ShadowPm::new();
        let _ = replay(&mut s, &[write(A, 8, 1), flush(A, 2), fence(3)]);
        let mut post = s.begin_post(true);
        let mut out = DetectionReport::new();
        post.apply_post(&read(A, 8, 4), fp(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn untouched_location_reads_are_clean() {
        let s = ShadowPm::new();
        let mut post = s.begin_post(true);
        let mut out = DetectionReport::new();
        post.apply_post(&read(A, 64, 1), fp(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn flushing_only_covers_the_line() {
        let mut s = ShadowPm::new();
        let _ = replay(
            &mut s,
            &[
                write(A, 8, 1),      // line of A
                write(A + 64, 8, 2), // next line
                flush(A, 3),
                fence(4),
            ],
        );
        assert_eq!(s.persist_state(A), PersistState::Persisted);
        assert_eq!(s.persist_state(A + 64), PersistState::Modified);
    }

    #[test]
    fn redundant_flush_is_a_performance_bug() {
        let mut s = ShadowPm::new();
        let out = replay(
            &mut s,
            &[
                write(A, 8, 1),
                flush(A, 2),
                flush(A, 3),
                fence(4),
                flush(A, 5),
            ],
        );
        assert_eq!(out.performance_count(), 2, "{out}");
        assert!(out
            .findings()
            .iter()
            .all(|f| f.kind == BugKind::RedundantFlush));
    }

    #[test]
    fn redundant_flush_not_reported_for_unchecked_entries() {
        let mut s = ShadowPm::new();
        let mut out = DetectionReport::new();
        let mut e = flush(A, 2);
        e.checked = false;
        s.apply_pre(&write(A, 8, 1), &mut out);
        s.apply_pre(&flush(A, 2), &mut out);
        s.apply_pre(&e, &mut out); // redundant but library-internal
        assert!(out.is_empty());
    }

    #[test]
    fn nt_write_snoop_writes_back_same_line_stores() {
        // An NT store to a line holding earlier plain stores forces that
        // line's write-back (Intel SDM): the earlier store persists at the
        // same fence.
        let mut s = ShadowPm::new();
        let _ = replay(
            &mut s,
            &[
                write(A + 8, 8, 1), // plain store, same line as A
                entry(Op::NtWrite { addr: A, size: 8 }, 2),
                fence(3),
            ],
        );
        assert_eq!(s.persist_state(A), PersistState::Persisted);
        assert_eq!(s.persist_state(A + 8), PersistState::Persisted);
    }

    #[test]
    fn nt_write_persists_at_fence() {
        let mut s = ShadowPm::new();
        let _ = replay(&mut s, &[entry(Op::NtWrite { addr: A, size: 8 }, 1)]);
        assert_eq!(s.persist_state(A), PersistState::WritebackPending);
        let mut out = DetectionReport::new();
        s.apply_pre(&fence(2), &mut out);
        assert_eq!(s.persist_state(A), PersistState::Persisted);
    }

    // --- commit-variable semantics (the Figure 11 walkthrough) -----------

    /// Trace of Figure 2 / Figure 11: backup at 0x100, valid at 0x110,
    /// arr[idx] at 0x200, with valid registered as the commit variable.
    fn figure11_shadow(upto_f2: bool) -> ShadowPm {
        let mut s = ShadowPm::new();
        let mut entries = vec![
            entry(
                Op::RegisterCommitVar {
                    addr: 0x110,
                    size: 4,
                },
                0,
            ),
            write(0x100, 16, 1), // backup
            write(0x110, 4, 2),  // valid (commit write, same epoch!)
        ];
        if upto_f2 {
            entries.extend([
                flush(0x100, 3), // one line covers both
                fence(4),
                write(0x200, 16, 5), // arr[idx]
            ]);
        }
        let out = replay(&mut s, &entries);
        assert!(out.is_empty(), "{out}");
        s
    }

    #[test]
    fn figure11_f1_reports_race_on_backup() {
        let s = figure11_shadow(false);
        let mut post = s.begin_post(true);
        let mut out = DetectionReport::new();
        post.apply_post(&read(0x110, 1, 6), fp(), &mut out); // valid: benign
        post.apply_post(&read(0x100, 16, 7), fp(), &mut out); // backup
        assert_eq!(out.race_count(), 1, "{out}");
        assert_eq!(out.findings()[0].kind, BugKind::CrossFailureRace);
    }

    #[test]
    fn figure11_f2_reports_semantic_bug_on_backup() {
        let s = figure11_shadow(true);
        let mut post = s.begin_post(true);
        let mut out = DetectionReport::new();
        post.apply_post(&read(0x110, 1, 6), fp(), &mut out);
        post.apply_post(&read(0x100, 16, 7), fp(), &mut out);
        assert_eq!(out.semantic_count(), 1, "{out}");
        assert_eq!(out.race_count(), 0, "{out}");
    }

    #[test]
    fn commit_var_reads_are_benign() {
        let s = figure11_shadow(false);
        let mut post = s.begin_post(true);
        let mut out = DetectionReport::new();
        post.apply_post(&read(0x110, 4, 6), fp(), &mut out);
        assert!(out.is_empty(), "reading the commit variable is benign");
    }

    #[test]
    fn correctly_ordered_commit_makes_data_consistent() {
        // backup written, persisted, THEN committed in a later epoch.
        let mut s = ShadowPm::new();
        let out = replay(
            &mut s,
            &[
                entry(
                    Op::RegisterCommitVar {
                        addr: 0x110,
                        size: 4,
                    },
                    0,
                ),
                write(0x100, 16, 1),
                flush(0x100, 2),
                fence(3),
                write(0x110, 4, 4), // commit write in epoch 1
                flush(0x110, 5),
                fence(6),
            ],
        );
        assert!(out.is_empty());
        let mut post = s.begin_post(true);
        let mut o = DetectionReport::new();
        post.apply_post(&read(0x100, 16, 7), fp(), &mut o);
        assert!(o.is_empty(), "consistent data is bug-free: {o}");
    }

    #[test]
    fn stale_data_after_two_commits_is_semantic_bug() {
        // Data written before the pre-last commit, then two commit writes:
        // the data is stale (Equation 3 fails on the first conjunct).
        let mut s = ShadowPm::new();
        let _ = replay(
            &mut s,
            &[
                entry(
                    Op::RegisterCommitVar {
                        addr: 0x110,
                        size: 4,
                    },
                    0,
                ),
                write(0x100, 8, 1),
                flush(0x100, 2),
                fence(3),
                write(0x110, 4, 4), // commit #1, epoch 1
                flush(0x110, 5),
                fence(6),
                write(0x110, 4, 7), // commit #2, epoch 2
                flush(0x110, 8),
                fence(9),
            ],
        );
        let mut post = s.begin_post(true);
        let mut out = DetectionReport::new();
        post.apply_post(&read(0x100, 8, 10), fp(), &mut out);
        assert_eq!(out.semantic_count(), 1, "{out}");
    }

    // --- transactional discipline ----------------------------------------

    #[test]
    fn tx_added_range_is_consistent_even_unpersisted() {
        let mut s = ShadowPm::new();
        let _ = replay(
            &mut s,
            &[
                entry(Op::TxBegin, 1),
                entry(Op::TxAdd { addr: A, size: 8 }, 2),
                write(A, 8, 3), // modified inside tx, not yet committed
            ],
        );
        let mut post = s.begin_post(true);
        let mut out = DetectionReport::new();
        post.apply_post(&read(A, 8, 4), fp(), &mut out);
        assert!(out.is_empty(), "undo log protects the range: {out}");
    }

    #[test]
    fn unadded_write_inside_tx_is_flagged() {
        let mut s = ShadowPm::new();
        let _ = replay(
            &mut s,
            &[
                entry(Op::TxBegin, 1),
                entry(Op::TxAdd { addr: A, size: 8 }, 2),
                write(A, 8, 3),
                write(A + 64, 8, 4), // the Figure 1 `length` bug
                entry(Op::TxCommit, 5),
            ],
        );
        let mut post = s.begin_post(true);
        let mut out = DetectionReport::new();
        post.apply_post(&read(A + 64, 8, 6), fp(), &mut out);
        assert_eq!(
            out.race_count() + out.semantic_count(),
            1,
            "unprotected write must be flagged: {out}"
        );
    }

    #[test]
    fn unadded_write_flagged_as_semantic_when_persisted() {
        let mut s = ShadowPm::new();
        let _ = replay(
            &mut s,
            &[
                entry(Op::TxBegin, 1),
                write(A, 8, 2),
                flush(A, 3),
                fence(4),
                entry(Op::TxCommit, 5),
            ],
        );
        let mut post = s.begin_post(true);
        let mut out = DetectionReport::new();
        post.apply_post(&read(A, 8, 6), fp(), &mut out);
        assert_eq!(out.semantic_count(), 1, "{out}");
    }

    #[test]
    fn duplicate_tx_add_is_performance_bug() {
        let mut s = ShadowPm::new();
        let out = replay(
            &mut s,
            &[
                entry(Op::TxBegin, 1),
                entry(Op::TxAdd { addr: A, size: 8 }, 2),
                entry(Op::TxAdd { addr: A, size: 8 }, 3),
                entry(Op::TxCommit, 4),
            ],
        );
        assert_eq!(out.performance_count(), 1);
        assert_eq!(out.findings()[0].kind, BugKind::DuplicateTxAdd);
    }

    #[test]
    fn write_then_add_is_not_protected() {
        // The snapshot taken by TX_ADD already contains the modification:
        // rollback cannot restore the pre-transaction value.
        let mut s = ShadowPm::new();
        let _ = replay(
            &mut s,
            &[
                entry(Op::TxBegin, 1),
                write(A, 8, 2), // modified before being added
                entry(Op::TxAdd { addr: A, size: 8 }, 3),
                entry(Op::TxCommit, 4),
            ],
        );
        let mut post = s.begin_post(true);
        let mut out = DetectionReport::new();
        post.apply_post(&read(A, 8, 5), fp(), &mut out);
        assert_eq!(
            out.race_count() + out.semantic_count(),
            1,
            "write-then-add must stay flagged: {out}"
        );
    }

    #[test]
    fn tx_protection_lost_when_modified_outside_tx() {
        let mut s = ShadowPm::new();
        let _ = replay(
            &mut s,
            &[
                entry(Op::TxBegin, 1),
                entry(Op::TxAdd { addr: A, size: 8 }, 2),
                write(A, 8, 3),
                entry(Op::TxCommit, 4),
                write(A, 8, 5), // outside any tx: unprotected again
            ],
        );
        let mut post = s.begin_post(true);
        let mut out = DetectionReport::new();
        post.apply_post(&read(A, 8, 6), fp(), &mut out);
        assert_eq!(out.race_count(), 1, "{out}");
    }

    // --- allocation semantics ---------------------------------------------

    #[test]
    fn uninitialized_alloc_read_is_race() {
        let mut s = ShadowPm::new();
        let _ = replay(
            &mut s,
            &[entry(
                Op::Alloc {
                    addr: A,
                    size: 64,
                    zeroed: false,
                },
                1,
            )],
        );
        let mut post = s.begin_post(true);
        let mut out = DetectionReport::new();
        post.apply_post(&read(A, 8, 2), fp(), &mut out);
        assert_eq!(out.race_count(), 1);
        assert_eq!(out.findings()[0].kind, BugKind::UninitializedRace);
        assert_eq!(
            out.findings()[0].writer.unwrap().line,
            1,
            "the allocation site is reported as the writer"
        );
    }

    #[test]
    fn zeroed_alloc_read_is_clean() {
        let mut s = ShadowPm::new();
        let _ = replay(
            &mut s,
            &[entry(
                Op::Alloc {
                    addr: A,
                    size: 64,
                    zeroed: true,
                },
                1,
            )],
        );
        let mut post = s.begin_post(true);
        let mut out = DetectionReport::new();
        post.apply_post(&read(A, 8, 2), fp(), &mut out);
        assert!(out.is_empty(), "{out}");
    }

    #[test]
    fn freed_memory_reads_are_not_flagged() {
        let mut s = ShadowPm::new();
        let _ = replay(
            &mut s,
            &[write(A, 8, 1), entry(Op::Free { addr: A, size: 64 }, 2)],
        );
        let mut post = s.begin_post(true);
        let mut out = DetectionReport::new();
        post.apply_post(&read(A, 8, 3), fp(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn alloc_resets_prior_state() {
        let mut s = ShadowPm::new();
        let _ = replay(
            &mut s,
            &[
                write(A, 8, 1), // stale data from a previous life
                entry(
                    Op::Alloc {
                        addr: A,
                        size: 64,
                        zeroed: false,
                    },
                    2,
                ),
            ],
        );
        let mut post = s.begin_post(true);
        let mut out = DetectionReport::new();
        post.apply_post(&read(A, 8, 3), fp(), &mut out);
        assert_eq!(out.findings()[0].kind, BugKind::UninitializedRace);
    }

    // --- post-stage behavior ----------------------------------------------

    #[test]
    fn post_write_makes_subsequent_reads_consistent() {
        let mut s = ShadowPm::new();
        let _ = replay(&mut s, &[write(A, 8, 1)]);
        let mut post = s.begin_post(true);
        let mut out = DetectionReport::new();
        post.apply_post(
            &TraceEntry::new(
                Op::Write { addr: A, size: 8 },
                loc(2),
                Stage::Post,
                false,
                true,
            ),
            fp(),
            &mut out,
        );
        post.apply_post(&read(A, 8, 3), fp(), &mut out);
        assert!(out.is_empty(), "recovery overwrote the location: {out}");
    }

    #[test]
    fn first_read_only_suppresses_repeat_checks() {
        let mut s = ShadowPm::new();
        let _ = replay(&mut s, &[write(A, 8, 1)]);
        let mut post = s.begin_post(true);
        let mut out = DetectionReport::new();
        post.apply_post(&read(A, 8, 2), fp(), &mut out);
        post.apply_post(&read(A, 8, 20), fp(), &mut out); // different loc!
        assert_eq!(out.len(), 1, "second read of same bytes skipped");

        let mut post2 = s.begin_post(false);
        let mut out2 = DetectionReport::new();
        post2.apply_post(&read(A, 8, 2), fp(), &mut out2);
        post2.apply_post(&read(A, 8, 20), fp(), &mut out2);
        assert_eq!(out2.len(), 2, "ablation: every read checked");
    }

    #[test]
    fn unchecked_post_reads_are_skipped() {
        let mut s = ShadowPm::new();
        let _ = replay(&mut s, &[write(A, 8, 1)]);
        let mut post = s.begin_post(true);
        let mut out = DetectionReport::new();
        let mut e = read(A, 8, 2);
        e.checked = false; // library-internal or outside RoI
        post.apply_post(&e, fp(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn post_clone_does_not_leak_into_pre_shadow() {
        let mut s = ShadowPm::new();
        let _ = replay(&mut s, &[write(A, 8, 1)]);
        {
            let mut post = s.begin_post(true);
            let mut out = DetectionReport::new();
            post.apply_post(
                &TraceEntry::new(
                    Op::Write { addr: A, size: 8 },
                    loc(2),
                    Stage::Post,
                    false,
                    true,
                ),
                fp(),
                &mut out,
            );
        }
        // The pre-failure shadow still sees the location as racy.
        let mut post2 = s.begin_post(true);
        let mut out = DetectionReport::new();
        post2.apply_post(&read(A, 8, 3), fp(), &mut out);
        assert_eq!(out.race_count(), 1);
    }

    // --- copy-on-write checkpointing ---------------------------------------

    #[test]
    fn checkpoint_is_isolated_from_later_pre_writes() {
        let mut s = ShadowPm::new();
        let _ = replay(&mut s, &[write(A, 8, 1), flush(A, 2), fence(3)]);
        let cp = s.clone();
        let _ = replay(&mut s, &[write(A, 8, 4), write(A + 256, 8, 5)]);
        assert_eq!(s.persist_state(A), PersistState::Modified);
        assert_eq!(
            cp.persist_state(A),
            PersistState::Persisted,
            "checkpoint must not observe later mutations"
        );
        assert_eq!(cp.persist_state(A + 256), PersistState::Unmodified);
        assert!(
            s.bytes_cloned() > 0,
            "mutating while a checkpoint is alive must fault state"
        );
        assert_eq!(cp.bytes_cloned(), 0);
    }

    #[test]
    fn dropped_checkpoints_cost_nothing() {
        // The sequential engine's pattern: checkpoint, check, drop, resume.
        let mut s = ShadowPm::new();
        for round in 0..10u64 {
            let _ = replay(&mut s, &[write(A + round * 64, 8, 1)]);
            let post = s.begin_post(true);
            drop(post);
        }
        assert_eq!(
            s.bytes_cloned(),
            0,
            "no checkpoint was alive across a mutation"
        );
        assert!(s.resident_bytes() > 0);
    }

    #[test]
    fn live_checkpoint_faults_only_touched_lines() {
        let mut s = ShadowPm::new();
        for i in 0..8u64 {
            let _ = replay(&mut s, &[write(A + i * 64, 8, 1)]);
        }
        let resident = s.resident_bytes();
        let _cp = s.begin_post(true);
        let _ = replay(&mut s, &[write(A, 1, 2)]); // touches one line
        assert!(s.bytes_cloned() > 0);
        assert!(
            s.bytes_cloned() < resident,
            "one-line fault must copy less than the whole shadow: {} !< {}",
            s.bytes_cloned(),
            resident
        );
    }

    // --- the writer table ----------------------------------------------------

    #[test]
    fn a_checkpoint_keeps_its_writers_when_the_live_table_is_copied() {
        // Thread 0 writes the data, thread 1 publishes the commit variable
        // in the same epoch: a cross-thread semantic finding naming line 1.
        let mut s = ShadowPm::new();
        let var = Op::RegisterCommitVar {
            addr: 0x110,
            size: 4,
        };
        let _ = replay(
            &mut s,
            &[
                tentry(var, 0, 0),
                twrite(0x100, 8, 1, 0),
                twrite(0x110, 4, 2, 1),
                tflush(0x100, 3, 0),
                tfence(4, 0),
                tflush(0x110, 5, 1),
                tfence(6, 1),
            ],
        );
        let mut post = s.begin_post(true);
        let table_at_checkpoint = s.writers.writers.len();
        let cloned_before = s.bytes_cloned();
        // New writers on the live shadow, the data overwritten by thread 1
        // among them: the first new one copies the shared table.
        let stores: Vec<TraceEntry> = (0..100)
            .map(|i| twrite(0x1000 + i * 8, 8, 100 + i as u32, (i % 2) as u32))
            .chain([twrite(0x100, 8, 50, 1)])
            .collect();
        let _ = replay(&mut s, &stores);
        assert!(!Arc::ptr_eq(&s.writers, &post.shadow.writers));
        assert_eq!(post.shadow.writers.writers.len(), table_at_checkpoint);
        assert_eq!(s.writers.writers.len(), table_at_checkpoint + 101);
        assert_eq!(
            s.bytes_cloned() - cloned_before,
            SPINE_ENTRY_BYTES + SLAB_BYTES + table_at_checkpoint as u64 * WRITER_ENTRY_BYTES,
            "the one-line spine, the data line and the table, once each"
        );
        let mut out = DetectionReport::new();
        post.apply_post(&read(0x100, 8, 7), fp(), &mut out);
        let f = &out.findings()[0];
        assert_eq!(f.kind, BugKind::CrossThreadSemantic, "{out}");
        assert_eq!(f.writer.unwrap().line, 1, "the checkpoint's writer");
        // The live shadow sees thread 1's write, on the publishing thread.
        let mut live = s.begin_post(true);
        let mut out = DetectionReport::new();
        live.apply_post(&read(0x100, 8, 7), fp(), &mut out);
        assert_eq!(out.findings()[0].kind, BugKind::CrossFailureRace, "{out}");
        assert_eq!(out.findings()[0].writer.unwrap().line, 50);
    }

    #[test]
    fn the_writer_table_grows_with_sites_not_stores() {
        let mut s = ShadowPm::new();
        let mut out = DetectionReport::new();
        for i in 0..100_000u64 {
            s.apply_pre(&twrite(A + i % 512 * 8, 8, 7, (i % 2) as u32), &mut out);
        }
        let w = &s.writers.writers;
        assert_eq!(
            w.len(),
            3,
            "<untracked> plus one site on two threads: {w:?}"
        );
        assert_eq!(w[UNTRACKED_WRITER as usize].loc.file, "<untracked>");
        assert_eq!(
            (w[1].loc.line, w[1].tid, w[2].loc.line, w[2].tid),
            (7, 0, 7, 1)
        );
    }

    // --- persistence-state fingerprints ------------------------------------

    #[test]
    fn fingerprint_is_address_invariant() {
        // The same protocol phase at disjoint addresses (a fresh allocation
        // per loop iteration) must land in the same equivalence class.
        let program = |base: u64| {
            let mut s = ShadowPm::new();
            s.enable_fingerprinting();
            let _ = replay(
                &mut s,
                &[write(base, 8, 1), write(base + 64, 4, 2), flush(base, 3)],
            );
            s.persistence_fingerprint()
        };
        assert_eq!(program(A), program(A + 0x4000));
    }

    #[test]
    fn fingerprint_distinguishes_writer_and_state() {
        let run = |line: u32, flushed: bool| {
            let mut s = ShadowPm::new();
            s.enable_fingerprinting();
            let mut entries = vec![write(A, 8, line)];
            if flushed {
                entries.push(flush(A, 90));
            }
            let _ = replay(&mut s, &entries);
            s.persistence_fingerprint()
        };
        assert_ne!(run(1, false), run(2, false), "novel writer → new class");
        assert_ne!(run(1, false), run(1, true), "persist state is keyed");
    }

    #[test]
    fn persisted_state_has_the_empty_fingerprint() {
        let mut s = ShadowPm::new();
        s.enable_fingerprinting();
        let empty = s.persistence_fingerprint();
        let _ = replay(&mut s, &[write(A, 8, 1), flush(A, 2), fence(3)]);
        assert_eq!(
            s.persistence_fingerprint(),
            empty,
            "fully persisted state must collapse with the initial state"
        );
        assert_eq!(s.fingerprint_from_scratch(), empty);
    }

    #[test]
    fn enabling_fingerprinting_late_seeds_the_index() {
        let mut s = ShadowPm::new();
        let _ = replay(&mut s, &[write(A, 8, 1), write(A + 256, 8, 2), flush(A, 3)]);
        let scratch = s.fingerprint_from_scratch();
        s.enable_fingerprinting();
        assert_eq!(s.persistence_fingerprint(), scratch);
    }

    #[test]
    fn checkpoints_drop_the_index_but_not_the_state() {
        let mut s = ShadowPm::new();
        s.enable_fingerprinting();
        let _ = replay(&mut s, &[write(A, 8, 1)]);
        let cp = s.clone();
        assert!(cp.fp.is_none(), "checkpoints shed the volatile index");
        assert_eq!(
            cp.fingerprint_from_scratch(),
            s.persistence_fingerprint(),
            "the state itself is unaffected"
        );
    }

    #[test]
    fn uninitialized_alloc_is_fingerprinted() {
        let mut s = ShadowPm::new();
        s.enable_fingerprinting();
        let clean = s.persistence_fingerprint();
        let _ = replay(
            &mut s,
            &[entry(
                Op::Alloc {
                    addr: A,
                    size: 8,
                    zeroed: false,
                },
                1,
            )],
        );
        assert_ne!(
            s.persistence_fingerprint(),
            clean,
            "an uninitialized allocation changes what recovery can observe"
        );
    }

    #[test]
    fn flushing_a_modified_line_refreshes_its_records() {
        let mut s = ShadowPm::new();
        s.enable_fingerprinting();
        let _ = replay(&mut s, &[write(A, 8, 1)]);
        let modified = s.persistence_fingerprint();
        // The line stays suspect either way; only its records move.
        let _ = replay(&mut s, &[flush(A, 2)]);
        let pending = s.persistence_fingerprint();
        assert_ne!(pending, modified, "a write-back in flight is a new state");
        assert_eq!(pending, s.fingerprint_from_scratch());
    }

    #[test]
    fn a_store_loop_over_one_line_marks_it_dirty_once() {
        let mut s = ShadowPm::new();
        s.enable_fingerprinting();
        let stores: Vec<TraceEntry> = (0..8).map(|i| write(A + i * 8, 8, 1)).collect();
        let _ = replay(&mut s, &stores);
        assert_eq!(s.fp_dirty, [A / LINE]);
        assert_eq!(s.persistence_fingerprint(), s.fingerprint_from_scratch());
        assert!(
            s.fp_dirty.is_empty(),
            "a query re-derives and empties the list"
        );
    }

    #[test]
    fn query_free_replay_keeps_the_dirty_list_bounded() {
        let mut s = ShadowPm::new();
        s.enable_fingerprinting();
        let mut out = DetectionReport::new();
        let mut step = |s: &mut ShadowPm, e: TraceEntry| {
            s.apply_pre(&e, &mut out);
            assert!(s.fp_dirty.len() <= s.fp_dirty_bound());
        };
        // Thousands of failure-point intervals over 8 lines, never queried.
        for round in 0..2000u64 {
            let li = round % 8;
            for i in 0..8 {
                step(&mut s, write(A + li * LINE + i * 8, 8, 1));
            }
            step(&mut s, flush(A + li * LINE, 2));
            if round % 3 == 0 {
                step(&mut s, fence(3));
            }
        }
        // Many lines allocated, then all freed: the lines leave the map but
        // stay dirty until their index records are dropped.
        let far = A + 0x10_0000;
        for li in 0..300 {
            let alloc = Op::Alloc {
                addr: far + li * LINE,
                size: LINE as u32,
                zeroed: false,
            };
            step(&mut s, entry(alloc, 4));
        }
        assert_eq!(s.persistence_fingerprint(), s.fingerprint_from_scratch());
        for li in 0..300 {
            let free = Op::Free {
                addr: far + li * LINE,
                size: LINE as u32,
            };
            step(&mut s, entry(free, 5));
        }
        assert_eq!(s.persistence_fingerprint(), s.fingerprint_from_scratch());
    }

    #[test]
    fn line_hasher_spreads_keys_that_share_their_low_bits() {
        // `k << 32` keys agree in their low 32 bits, so a multiply without
        // the folded high half would put all 4096 in one low-12-bit bucket.
        for hasher in [
            LineHasher::default(),
            LineHasher { seed: 0 },
            LineHasher { seed: 1 },
        ] {
            let buckets: HashSet<u64> = (0..4096u64)
                .map(|k| hasher.hash_one(k << 32) & 0xfff)
                .collect();
            assert!(
                buckets.len() >= 1024,
                "{} buckets under {hasher:?}",
                buckets.len()
            );
        }
        let key = 0x1234_5678_9abc_def0u64;
        assert_ne!(
            LineHasher { seed: 1 }.hash_one(key),
            LineHasher { seed: 2 }.hash_one(key),
            "the seed must change the hash"
        );
    }

    #[test]
    fn range_set_membership_matches_linear_scan() {
        let mut rs = RangeSet::default();
        let ranges = [(10u64, 20u64), (30, 35), (15, 32), (50, 60), (60, 64)];
        let mut flat: Vec<(u64, u64)> = Vec::new();
        for &(a, b) in &ranges {
            rs.insert(a, b);
            flat.push((a, b));
        }
        for b in 0..80u64 {
            let expect = flat.iter().any(|&(s, e)| b >= s && b < e);
            assert_eq!(rs.contains(b), expect, "byte {b}");
        }
        for start in 0..80u64 {
            for len in 1..4u64 {
                let end = start + len;
                let expect = flat.iter().any(|&(s, e)| start < e && end > s);
                assert_eq!(rs.overlaps(start, end), expect, "[{start}, {end})");
            }
        }
        assert_eq!(
            rs.ranges,
            vec![(10, 35), (50, 64)],
            "ranges coalesce into sorted disjoint spans"
        );
    }

    // --- per-thread fence semantics ----------------------------------------

    fn tentry(op: Op, line: u32, tid: u32) -> TraceEntry {
        TraceEntry::new(op, loc(line), Stage::Pre, false, true).with_tid(tid)
    }

    fn twrite(a: u64, s: u32, line: u32, tid: u32) -> TraceEntry {
        tentry(Op::Write { addr: a, size: s }, line, tid)
    }

    fn tflush(a: u64, line: u32, tid: u32) -> TraceEntry {
        tentry(
            Op::Flush {
                addr: a,
                kind: FlushKind::Clwb,
            },
            line,
            tid,
        )
    }

    fn tfence(line: u32, tid: u32) -> TraceEntry {
        tentry(
            Op::Fence {
                kind: FenceKind::Sfence,
            },
            line,
            tid,
        )
    }

    #[test]
    fn foreign_fence_does_not_drain_own_writebacks() {
        // Thread 0 writes and flushes; thread 1 fences. The write-back was
        // issued by thread 0, so thread 1's fence guarantees nothing.
        let mut s = ShadowPm::new();
        let _ = replay(&mut s, &[twrite(A, 8, 1, 0), tflush(A, 2, 0), tfence(3, 1)]);
        assert_eq!(
            s.persist_state(A),
            PersistState::WritebackPending,
            "a foreign fence must not persist another thread's write-back"
        );
        // Thread 0's own fence still drains it.
        let mut out = DetectionReport::new();
        s.apply_pre(&tfence(4, 0), &mut out);
        assert_eq!(s.persist_state(A), PersistState::Persisted);
    }

    #[test]
    fn read_exposed_by_foreign_fence_is_cross_thread_race() {
        let mut s = ShadowPm::new();
        let _ = replay(
            &mut s,
            &[twrite(A, 8, 10, 0), tflush(A, 11, 0), tfence(12, 1)],
        );
        let mut post = s.begin_post(true);
        let mut out = DetectionReport::new();
        post.apply_post(&read(A, 8, 20), fp(), &mut out);
        assert_eq!(out.race_count(), 1, "{out}");
        assert_eq!(out.findings()[0].kind, BugKind::CrossThreadRace);
        assert_eq!(out.findings()[0].writer.unwrap().line, 10);
    }

    #[test]
    fn unflushed_write_stays_plain_race_across_threads() {
        // No flush at all: the bug is an ordinary missing-flush race even in
        // a multi-threaded trace — only a fence *racing a pending
        // write-back* upgrades the kind.
        let mut s = ShadowPm::new();
        let _ = replay(&mut s, &[twrite(A, 8, 1, 0), tfence(2, 1)]);
        let mut post = s.begin_post(true);
        let mut out = DetectionReport::new();
        post.apply_post(&read(A, 8, 3), fp(), &mut out);
        assert_eq!(out.findings()[0].kind, BugKind::CrossFailureRace);
    }

    #[test]
    fn rewrite_clears_the_cross_thread_mark() {
        let mut s = ShadowPm::new();
        let _ = replay(
            &mut s,
            &[
                twrite(A, 8, 1, 0),
                tflush(A, 2, 0),
                tfence(3, 1), // marks A cross-thread
                twrite(A, 8, 4, 0),
            ],
        );
        let mut post = s.begin_post(true);
        let mut out = DetectionReport::new();
        post.apply_post(&read(A, 8, 5), fp(), &mut out);
        assert_eq!(
            out.findings()[0].kind,
            BugKind::CrossFailureRace,
            "a fresh write starts a fresh persistence obligation"
        );
    }

    #[test]
    fn commit_by_other_thread_is_cross_thread_semantic() {
        // Thread 0 writes the data; thread 1 publishes the commit variable
        // in the same epoch. The resulting inconsistency is cross-thread.
        let mut s = ShadowPm::new();
        let _ = replay(
            &mut s,
            &[
                tentry(
                    Op::RegisterCommitVar {
                        addr: 0x110,
                        size: 4,
                    },
                    0,
                    0,
                ),
                twrite(0x100, 8, 1, 0), // data, thread 0
                twrite(0x110, 4, 2, 1), // commit write, thread 1, same epoch
                tflush(0x100, 3, 0),
                tfence(4, 0),
                tflush(0x110, 5, 1),
                tfence(6, 1),
            ],
        );
        let mut post = s.begin_post(true);
        let mut out = DetectionReport::new();
        post.apply_post(&read(0x100, 8, 7), fp(), &mut out);
        assert_eq!(out.semantic_count(), 1, "{out}");
        assert_eq!(out.findings()[0].kind, BugKind::CrossThreadSemantic);
    }

    #[test]
    fn all_thread_zero_traces_match_untagged_behavior() {
        // The uniform per-thread semantics must degenerate exactly to the
        // classic single-threaded FSM when every entry carries tid 0.
        let mut a = ShadowPm::new();
        let mut b = ShadowPm::new();
        let _ = replay(&mut a, &[write(A, 8, 1), flush(A, 2), fence(3)]);
        let _ = replay(&mut b, &[twrite(A, 8, 1, 0), tflush(A, 2, 0), tfence(3, 0)]);
        assert_eq!(a.persist_state(A), b.persist_state(A));
        assert_eq!(a.fingerprint_from_scratch(), b.fingerprint_from_scratch());
    }

    #[test]
    fn cross_thread_state_is_fingerprinted() {
        let run = |fence_tid: u32| {
            let mut s = ShadowPm::new();
            s.enable_fingerprinting();
            let _ = replay(
                &mut s,
                &[twrite(A, 8, 1, 0), tflush(A, 2, 0), tfence(3, fence_tid)],
            );
            s.persistence_fingerprint()
        };
        assert_ne!(
            run(0),
            run(1),
            "persisted vs foreign-fence-pending must land in different classes"
        );
    }

    // --- the checking filter ----------------------------------------------

    #[test]
    fn read_index_keeps_checked_bytes_not_written_before_the_read() {
        let unchecked = TraceEntry::new(
            Op::Read {
                addr: A + 512,
                size: 8,
            },
            loc(4),
            Stage::Post,
            false,
            false,
        );
        let post = [
            entry(Op::Write { addr: A, size: 4 }, 1),
            // Spans two lines; its first four bytes were just written.
            read(A, 72, 2),
            read(A + 256, 0, 3),
            unchecked,
        ];
        let mut lines = ReadIndex::new(&post).lines.to_vec();
        lines.sort_unstable();
        assert_eq!(lines, [(A / LINE, !0xf), (A / LINE + 1, 0xff)]);
    }

    #[test]
    fn may_find_mirrors_the_checker_on_a_race() {
        let mut s = ShadowPm::new();
        let _ = replay(
            &mut s,
            &[
                write(A, 8, 1),
                write(A + 64, 8, 2),
                flush(A + 64, 3),
                fence(4),
            ],
        );
        assert!(s.may_find(&ReadIndex::new(&[read(A, 8, 10)])));
        assert!(!s.may_find(&ReadIndex::new(&[read(A + 64, 8, 10)])));
        // A post-failure write before the read makes it consistent.
        let overwritten = [entry(Op::Write { addr: A, size: 8 }, 9), read(A, 8, 10)];
        assert!(!s.may_find(&ReadIndex::new(&overwritten)));
    }

    #[test]
    fn a_dirty_fingerprint_index_is_not_used_as_the_prefilter() {
        let mut s = ShadowPm::new();
        s.enable_fingerprinting();
        let _ = replay(&mut s, &[write(A, 8, 1), flush(A, 2), fence(3)]);
        let _ = s.persistence_fingerprint();
        let index = ReadIndex::new(&[read(A, 8, 10)]);
        assert!(s.fresh_fp_index().is_some());
        assert!(!s.may_find(&index), "a persisted line is not suspect");
        // The unflushed store dirties the line; the index has not seen it.
        let _ = replay(&mut s, &[write(A, 8, 4)]);
        assert!(!s.fp.as_ref().unwrap().lines.contains_key(&(A / LINE)));
        assert!(s.fresh_fp_index().is_none());
        assert!(s.may_find(&index));
        let _ = s.persistence_fingerprint();
        assert!(s.fresh_fp_index().is_some());
        assert!(s.may_find(&index));
    }

    #[test]
    fn a_stale_fingerprint_index_is_not_used_as_the_prefilter() {
        let mut s = ShadowPm::new();
        s.enable_fingerprinting();
        let _ = replay(&mut s, &[write(A, 8, 1), flush(A, 2), fence(3)]);
        let _ = s.persistence_fingerprint();
        let index = ReadIndex::new(&[read(A, 8, 10)]);
        assert!(!s.may_find(&index));
        // A sole range-less commit variable that was never written governs
        // all of PM: every persisted store is now inconsistent, on a line
        // the registration never touched.
        let var = entry(
            Op::RegisterCommitVar {
                addr: A + 4096,
                size: 8,
            },
            5,
        );
        let _ = replay(&mut s, &[var]);
        assert!(s.fp_stale);
        assert!(!s.fp.as_ref().unwrap().lines.contains_key(&(A / LINE)));
        assert!(s.fresh_fp_index().is_none());
        assert!(s.may_find(&index));
        let mut out = DetectionReport::new();
        let mut checker = s.begin_post(true);
        checker.apply_post(&read(A, 8, 10), fp(), &mut out);
        assert_eq!(out.findings()[0].kind, BugKind::CrossFailureSemantic);
    }
}

/// The run-wise fingerprint records against an independent per-byte
/// derivation: one flags word and one hash per contributing byte, with
/// no run detection and no memo.
#[cfg(test)]
mod record_oracle {
    use super::*;
    use proptest::prelude::*;
    use xftrace::{FenceKind, FlushKind, Stage};

    const BASE: u64 = 0x1000;
    const LINES: u64 = 4;
    const POOL: u64 = LINES * LINE;
    /// Commit variables sit at one of a few fixed slots, so ranges find a
    /// registered variable and writes move variables often.
    const VAR_SLOTS: u64 = 4;
    const VAR_STRIDE: u64 = POOL / VAR_SLOTS;
    /// Writer files: two names, so runs split on the file as well as on
    /// the line, and a copy of the first at another address, so two
    /// writer ids share one record hash.
    fn files() -> [&'static str; 3] {
        static COPY: OnceLock<&'static str> = OnceLock::new();
        let copy = *COPY.get_or_init(|| Box::leak(String::from("oracle-a.rs").into_boxed_str()));
        ["oracle-a.rs", "oracle-b.rs", copy]
    }

    impl ShadowPm {
        /// Line `li`'s distinct records, one derived per contributing byte
        /// the way the per-byte loop this format was defined over does.
        fn per_byte_records(&self, li: u64, slab: &Slab) -> Vec<u64> {
            let s = self.suspects(li, slab, u64::MAX);
            let mut out = Vec::new();
            for i in 0..LINE as usize {
                if s.contributes >> i & 1 == 0 {
                    continue;
                }
                let bit = |plane: u64| (plane >> i) & 1;
                let persist_code = if bit(slab.modified) == 1 {
                    1
                } else if bit(slab.pending) == 1 {
                    2
                } else if bit(slab.persisted) == 1 {
                    3
                } else {
                    0
                };
                let verdict_code = if bit(s.inconsistent) == 1 {
                    1
                } else if bit(s.consistent) == 1 {
                    2
                } else {
                    0
                };
                let flags = persist_code
                    | bit(slab.written) << 2
                    | bit(slab.allocated) << 3
                    | bit(slab.zeroed_alloc) << 4
                    | bit(slab.unprotected_tx_write) << 5
                    | verdict_code << 6
                    | bit(slab.pending) << 8
                    | bit(s.commit_var) << 9
                    | bit(slab.xthread) << 10
                    | bit(s.buffered) << 11;
                let st = &slab.bytes[i];
                let writer = self.writers.get(st.writer);
                let tids = u64::from(writer.tid) << 32 | u64::from(st.flusher_tid);
                let mut h = fnv_u64(FNV_OFFSET, flags);
                h = fnv_u64(h, tids);
                h = fnv_bytes(h, writer.loc.file.as_bytes());
                out.push(fnv_u64(h, u64::from(writer.loc.line)));
            }
            out.sort_unstable();
            out.dedup();
            out
        }
    }

    #[derive(Debug, Clone)]
    enum Step {
        Write { off: u64, size: u32, nt: bool },
        Flush { off: u64 },
        Fence,
        TxBegin,
        TxAdd { off: u64, size: u32 },
        TxCommit,
        Alloc { off: u64, size: u32, zeroed: bool },
        Free { off: u64, size: u32 },
        RegisterVar { slot: u64 },
        RegisterRange { slot: u64, off: u64, size: u32 },
    }

    /// A step, the thread and writer location that issue it, and whether
    /// it comes from library internals.
    type Issued = (Step, u32, SourceLoc, bool);

    fn step() -> impl Strategy<Value = Step> {
        let off = 0..POOL;
        let size = 1..=24u32;
        prop_oneof![
            6 => (off.clone(), size.clone(), (0..100u32).prop_map(|p| p < 15))
                .prop_map(|(off, size, nt)| Step::Write { off, size, nt }),
            3 => off.clone().prop_map(|off| Step::Flush { off }),
            3 => Just(Step::Fence),
            1 => Just(Step::TxBegin),
            1 => (off.clone(), size.clone()).prop_map(|(off, size)| Step::TxAdd { off, size }),
            1 => Just(Step::TxCommit),
            1 => (off.clone(), size.clone(), any::<bool>())
                .prop_map(|(off, size, zeroed)| Step::Alloc { off, size, zeroed }),
            1 => (off.clone(), size).prop_map(|(off, size)| Step::Free { off, size }),
            1 => (0..VAR_SLOTS).prop_map(|slot| Step::RegisterVar { slot }),
            1 => (0..VAR_SLOTS, off, 1..=128u32)
                .prop_map(|(slot, off, size)| Step::RegisterRange { slot, off, size }),
        ]
    }

    fn issued() -> impl Strategy<Value = Issued> {
        let internal = (0..10u32).prop_map(|p| p == 0);
        ((step(), 0..2u32), (0..files().len(), 1..=3u32, internal)).prop_map(
            |((step, tid), (file, line, internal))| {
                let loc = SourceLoc {
                    file: files()[file],
                    line,
                };
                (step, tid, loc, internal)
            },
        )
    }

    fn domain() -> impl Strategy<Value = PersistDomain> {
        prop_oneof![
            Just(PersistDomain::Adr),
            Just(PersistDomain::Eadr),
            (1..=8usize).prop_map(|reorder_window| PersistDomain::CxlGpf { reorder_window }),
        ]
    }

    fn entry((step, tid, loc, internal): &Issued) -> TraceEntry {
        let op = match *step {
            Step::Write { off, size, nt } => {
                let addr = BASE + off;
                if nt {
                    Op::NtWrite { addr, size }
                } else {
                    Op::Write { addr, size }
                }
            }
            Step::Flush { off } => Op::Flush {
                addr: BASE + off,
                kind: FlushKind::Clwb,
            },
            Step::Fence => Op::Fence {
                kind: FenceKind::Sfence,
            },
            Step::TxBegin => Op::TxBegin,
            Step::TxAdd { off, size } => Op::TxAdd {
                addr: BASE + off,
                size,
            },
            Step::TxCommit => Op::TxCommit,
            Step::Alloc { off, size, zeroed } => Op::Alloc {
                addr: BASE + off,
                size,
                zeroed,
            },
            Step::Free { off, size } => Op::Free {
                addr: BASE + off,
                size,
            },
            Step::RegisterVar { slot } => Op::RegisterCommitVar {
                addr: BASE + slot * VAR_STRIDE,
                size: 8,
            },
            Step::RegisterRange { slot, off, size } => Op::RegisterCommitRange {
                var_addr: BASE + slot * VAR_STRIDE,
                addr: BASE + off,
                size,
            },
        };
        TraceEntry::new(op, *loc, Stage::Pre, *internal, true).with_tid(*tid)
    }

    /// Line by line, the run-wise records (memo off, and through `memo`,
    /// which outlives the step) must equal the per-byte ones.
    fn assert_records_match(shadow: &ShadowPm, memo: &mut RecordMemo) -> Result<(), TestCaseError> {
        for (&li, slab) in shadow.lines.iter() {
            let expected = shadow.per_byte_records(li, slab);
            let mut plain = Vec::new();
            shadow.byte_records(li, slab, None, &mut plain);
            plain.sort_unstable();
            plain.dedup();
            prop_assert_eq!(&plain, &expected, "line {} without the memo", li);
            let mut memoized = Vec::new();
            shadow.line_records(li, slab, memo, &mut memoized);
            prop_assert_eq!(&memoized, &expected, "line {} through the memo", li);
        }
        Ok(())
    }

    proptest! {
        /// After every replayed entry, every line's run-wise record set
        /// equals the per-byte oracle's, with the memo on and off.
        #[test]
        fn run_wise_records_equal_the_per_byte_oracle(
            steps in prop::collection::vec(issued(), 0..120),
            domain in domain(),
        ) {
            let mut shadow = ShadowPm::with_domain(domain);
            let mut memo = RecordMemo::default();
            let mut found = DetectionReport::new();
            for issued in &steps {
                shadow.apply_pre(&entry(issued), &mut found);
                assert_records_match(&shadow, &mut memo)?;
            }
        }
    }

    #[test]
    fn the_memo_starts_over_past_its_bound_and_keeps_hashing_right() {
        let mut memo = RecordMemo::default();
        let mut writers = WriterTable::default();
        for line in 0..3 * MEMO_RECORDS as u32 {
            let loc = SourceLoc {
                file: files()[0],
                line,
            };
            let key = RecordKey {
                flags: u64::from(line % 7),
                flusher_tid: 0,
                writer: writers.push(Writer { loc, tid: 0 }),
            };
            assert_eq!(memo.hash(key, &writers), key.hash(&writers));
            assert!(memo.0.len() <= MEMO_RECORDS);
        }
    }

    #[test]
    fn equal_file_names_at_two_addresses_are_two_writers_of_one_hash() {
        let [name, _, copy] = files();
        assert_eq!(name, copy);
        assert!(!std::ptr::eq(name, copy));
        let mut s = ShadowPm::new();
        s.enable_fingerprinting();
        let at = |file, line, tid| {
            TraceEntry::new(
                Op::Write {
                    addr: BASE,
                    size: 8,
                },
                SourceLoc { file, line },
                Stage::Pre,
                false,
                true,
            )
            .with_tid(tid)
        };
        let mut found = DetectionReport::new();
        s.apply_pre(&at(name, 1, 1), &mut found);
        let first = s.lines[&(BASE / LINE)].bytes[0].writer;
        let one = s.persistence_fingerprint();
        s.apply_pre(&at(copy, 1, 1), &mut found);
        let second = s.lines[&(BASE / LINE)].bytes[0].writer;
        assert_ne!(first, second, "two addresses, two ids");
        assert_eq!(s.persistence_fingerprint(), one, "one contents, one hash");
        assert_eq!(s.fingerprint_from_scratch(), one);
        let key = |writer| RecordKey {
            flags: 1,
            flusher_tid: 0,
            writer,
        };
        assert_eq!(key(first).hash(&s.writers), key(second).hash(&s.writers));
        let memo = &s.fp.as_ref().expect("fingerprinting is on").memo.0;
        let hashes: HashSet<u64> = memo.values().copied().collect();
        assert_eq!(
            (memo.len(), hashes.len()),
            (2, 1),
            "two entries, one hash: {memo:?}"
        );
    }
}
