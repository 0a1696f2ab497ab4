//! Replayable fuzz programs over the `pmdk` API.
//!
//! A [`FuzzProgram`] is a flat list of [`FuzzOp`]s replayed against a fixed
//! pool layout: the root object holds a small *data arena* (the target of
//! raw stores, flushes and transactional updates) followed by a *slot
//! table* publishing the addresses of heap allocations, so the post-failure
//! stage can find and read them across the crash. Replay is total: an op
//! that is invalid in the current replay state (a `TxCommit` outside a
//! transaction, a `Free` of an empty slot) is skipped deterministically,
//! which makes *every* subsequence of a program a valid program — the
//! property the delta-debugging shrinker relies on.
//!
//! Every op is attributed a synthetic source location whose line is the op's
//! index, so findings name the generating op and survive shrinking as
//! stable identities.

use pmdk_sim::{ObjPool, RedoTx, HEAP_OFFSET, REDO_CAPACITY};
use pmem::PmCtx;
use xfdetector::{ConcurrentWorkload, DynError, OpSequence, StepFn, ThreadProgram, Workload};
use xftrace::{FenceKind, FlushKind, SourceLoc};

/// Bytes of the data arena (7 cache lines) inside the root object.
pub const DATA_SIZE: u64 = 448;
/// Number of heap-allocation slots published in the slot table.
pub const SLOTS: usize = 4;
/// Offset of the slot table inside the root object (its own cache line).
pub const SLOT_TABLE_OFF: u64 = DATA_SIZE;
/// Total root-object size: data arena plus slot table line.
pub const ARENA_SIZE: u64 = DATA_SIZE + 64;
/// Pool size every fuzz program runs against.
pub const POOL_SIZE: u64 = 256 * 1024;

/// Pool offset of the concurrent programs' raw data arena. Concurrent
/// replay skips the `ObjPool` layer entirely — every role must be able to
/// compute its addresses from the pool base alone, before any context
/// exists — so the arena lives at a fixed offset in otherwise untouched
/// pool memory.
pub const CONC_ARENA_OFF: u64 = 64 * 1024;

/// Synthetic file name attributed to pre-failure fuzz ops.
const FUZZ_FILE: &str = "<fuzz>";
/// Line-number base for post-failure read sites (disjoint from op indices).
const POST_LINE_BASE: u32 = 1_000_000;
/// Per-thread line stride for concurrent op locations: thread `t`, op `i`
/// gets line `t * STRIDE + i + 1`, keeping op identities stable and
/// disjoint across threads (programs are far shorter than a stride).
const THREAD_LINE_STRIDE: u32 = 10_000;

/// Source location of pre-failure op `i` (line = index + 1).
#[must_use]
pub fn op_loc(i: usize) -> SourceLoc {
    SourceLoc {
        file: FUZZ_FILE,
        line: i as u32 + 1,
    }
}

/// Source location of concurrent pre-failure op `i` on thread `t`.
#[must_use]
pub fn conc_op_loc(t: usize, i: usize) -> SourceLoc {
    SourceLoc {
        file: FUZZ_FILE,
        line: t as u32 * THREAD_LINE_STRIDE + i as u32 + 1,
    }
}

fn post_loc(slot: u32) -> SourceLoc {
    SourceLoc {
        file: FUZZ_FILE,
        line: POST_LINE_BASE + slot,
    }
}

/// One generated PM operation. All offsets are byte offsets into the data
/// arena; the replayer adds the arena base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzOp {
    /// 8-byte store at `data + off`.
    Write { off: u16, val: u64 },
    /// 1-byte store at `data + off`.
    WriteByte { off: u16, val: u8 },
    /// 8-byte non-temporal store at `data + off`.
    NtWrite { off: u16, val: u64 },
    /// Cache-line write-back of the line holding `data + off`.
    Flush { off: u16, kind: FlushKind },
    /// Store fence / drain (an ordering point — a failure-injection site).
    Fence { kind: FenceKind },
    /// `persist_barrier(data + off, len)`: flush every covered line + fence.
    PersistRange { off: u16, len: u16 },
    /// `TX_BEGIN` (skipped if a transaction is already open).
    TxBegin,
    /// `TX_ADD(data + off, len)` (skipped outside a transaction).
    TxAdd { off: u16, len: u16 },
    /// `TX_END` (skipped outside a transaction).
    TxCommit,
    /// Transaction abort (skipped outside a transaction).
    TxAbort,
    /// Stage an 8-byte redo-log write of `val` to `data + off`.
    RedoStage { off: u16, val: u64 },
    /// Commit the staged redo log (skipped when nothing is staged).
    RedoCommit,
    /// Allocate `len` heap bytes into `slot` and publish the address in the
    /// slot table (skipped if the slot is occupied or a tx is open).
    Alloc { slot: u8, len: u16, zeroed: bool },
    /// Free the allocation in `slot` and zero its table entry (skipped if
    /// the slot is empty or a tx is open).
    Free { slot: u8 },
    /// 8-byte store to the first word of `slot`'s allocation (skipped if
    /// the slot is empty).
    SlotWrite { slot: u8, val: u64 },
    /// Register `data + off .. + 8` as a commit variable.
    RegVar { off: u16 },
    /// Register `data + off .. + len` as a commit range of the variable at
    /// `data + var_off` (which may be unregistered — an annotation
    /// conflict the detector must report).
    RegRange { var_off: u16, off: u16, len: u16 },
}

/// A seeded, replayable fuzz program. Implements [`Workload`], so it runs
/// through every engine exactly like a hand-written workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzProgram {
    /// Stable program name (binds the journal fingerprint).
    pub name: String,
    /// The ops, replayed in order by `pre_failure`.
    pub ops: Vec<FuzzOp>,
}

/// Volatile replay state threaded through one `pre_failure` execution.
struct Replay {
    arena: u64,
    slots: [u64; SLOTS],
    redo: Option<RedoTx>,
    staged: u64,
}

impl FuzzProgram {
    /// Whether any op stages redo-log writes (the redo area is then
    /// allocated up front, before the first generated op).
    fn uses_redo(&self) -> bool {
        self.ops
            .iter()
            .any(|op| matches!(op, FuzzOp::RedoStage { .. } | FuzzOp::RedoCommit))
    }

    fn replay_op(
        &self,
        ctx: &mut PmCtx,
        pool: &mut ObjPool,
        st: &mut Replay,
        i: usize,
        op: FuzzOp,
    ) -> Result<(), DynError> {
        let loc = op_loc(i);
        let a = |off: u16| st.arena + u64::from(off);
        match op {
            FuzzOp::Write { off, val } => ctx.write_u64_at(a(off), val, loc)?,
            FuzzOp::WriteByte { off, val } => ctx.write_at(a(off), &[val], loc)?,
            FuzzOp::NtWrite { off, val } => ctx.nt_write_at(a(off), &val.to_le_bytes(), loc)?,
            FuzzOp::Flush { off, kind } => {
                ctx.flush_at(a(off), kind, loc)?;
            }
            FuzzOp::Fence { kind } => ctx.fence_at(kind, loc),
            FuzzOp::PersistRange { off, len } => {
                ctx.persist_barrier_at(a(off), u64::from(len.max(1)), loc)?;
            }
            FuzzOp::TxBegin => {
                if !pool.in_tx() {
                    pool.tx_begin(ctx)?;
                }
            }
            FuzzOp::TxAdd { off, len } => {
                if pool.in_tx() {
                    pool.tx_add(ctx, a(off), u64::from(len.max(1)))?;
                }
            }
            FuzzOp::TxCommit => {
                if pool.in_tx() {
                    pool.tx_commit(ctx)?;
                }
            }
            FuzzOp::TxAbort => {
                if pool.in_tx() {
                    pool.tx_abort(ctx)?;
                }
            }
            FuzzOp::RedoStage { off, val } => {
                if let Some(redo) = st.redo.as_mut() {
                    if st.staged < REDO_CAPACITY {
                        redo.stage(a(off), &val.to_le_bytes())?;
                        st.staged += 1;
                    }
                }
            }
            FuzzOp::RedoCommit => {
                if st.staged > 0 {
                    if let Some(redo) = st.redo.as_mut() {
                        redo.commit(ctx)?;
                        st.staged = 0;
                    }
                }
            }
            FuzzOp::Alloc { slot, len, zeroed } => {
                let s = slot as usize % SLOTS;
                if st.slots[s] == 0 && !pool.in_tx() {
                    let size = u64::from(len.max(8));
                    let addr = if zeroed {
                        pool.alloc_zeroed(ctx, size)?
                    } else {
                        pool.alloc(ctx, size)?
                    };
                    st.slots[s] = addr;
                    ctx.write_u64_at(st.arena + SLOT_TABLE_OFF + s as u64 * 8, addr, loc)?;
                }
            }
            FuzzOp::Free { slot } => {
                let s = slot as usize % SLOTS;
                if st.slots[s] != 0 && !pool.in_tx() {
                    pool.free(ctx, st.slots[s])?;
                    st.slots[s] = 0;
                    ctx.write_u64_at(st.arena + SLOT_TABLE_OFF + s as u64 * 8, 0, loc)?;
                }
            }
            FuzzOp::SlotWrite { slot, val } => {
                let s = slot as usize % SLOTS;
                if st.slots[s] != 0 {
                    ctx.write_u64_at(st.slots[s], val, loc)?;
                }
            }
            FuzzOp::RegVar { off } => ctx.register_commit_var(a(off), 8),
            FuzzOp::RegRange { var_off, off, len } => {
                ctx.register_commit_range(a(var_off), a(off), u32::from(len.max(1)));
            }
        }
        Ok(())
    }
}

impl Workload for FuzzProgram {
    fn name(&self) -> &str {
        &self.name
    }

    fn pool_size(&self) -> u64 {
        POOL_SIZE
    }

    fn setup(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
        let mut pool = ObjPool::create_robust(ctx)?;
        let _ = pool.root(ctx, ARENA_SIZE)?;
        Ok(())
    }

    fn pre_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
        let mut pool = ObjPool::open(ctx)?;
        let arena = pool.root(ctx, ARENA_SIZE)?;
        let mut st = Replay {
            arena,
            slots: [0; SLOTS],
            redo: None,
            staged: 0,
        };
        if self.uses_redo() {
            st.redo = Some(RedoTx::create(ctx, &mut pool)?);
        }
        for (i, &op) in self.ops.iter().enumerate() {
            self.replay_op(ctx, &mut pool, &mut st, i, op)?;
        }
        Ok(())
    }

    fn post_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
        let mut pool = ObjPool::open(ctx)?;
        let arena = pool.root(ctx, ARENA_SIZE)?;
        for w in 0..DATA_SIZE / 8 {
            let _ = ctx.read_u64_at(arena + w * 8, post_loc(w as u32))?;
        }
        let heap_lo = pool.base() + HEAP_OFFSET;
        let heap_hi = pool.base() + pool.len();
        for s in 0..SLOTS as u64 {
            let p = ctx.read_u64_at(
                arena + SLOT_TABLE_OFF + s * 8,
                post_loc(DATA_SIZE as u32 / 8 + s as u32),
            )?;
            if p >= heap_lo && p.checked_add(8).is_some_and(|end| end <= heap_hi) {
                let _ =
                    ctx.read_u64_at(p, post_loc(DATA_SIZE as u32 / 8 + SLOTS as u32 + s as u32))?;
            }
        }
        Ok(())
    }
}

// --- concurrent programs ----------------------------------------------------

/// A seeded, replayable *concurrent* fuzz program: one op list per logical
/// thread, interleaved by the session's schedule. Implements
/// [`ConcurrentWorkload`], so it runs through
/// [`Session::run_concurrent`](xfdetector::Session::run_concurrent) on
/// every engine exactly like the hand-written lock-free workloads.
///
/// Only the stateless op subset is allowed (raw stores, flushes, fences,
/// persist ranges, commit-variable registrations): the stateful ops
/// (transactions, redo logging, allocator churn) thread volatile replay
/// state through a single sequential execution and have no meaning split
/// across scheduler-interleaved roles. [`FuzzOp::concurrent_safe`] is the
/// predicate; the generator only draws from the subset and the text codec
/// rejects anything outside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConcurrentFuzzProgram {
    /// Stable program name (binds the journal fingerprint).
    pub name: String,
    /// Per-thread op lists; `threads[t]` replays on logical thread `t`.
    pub threads: Vec<Vec<FuzzOp>>,
}

impl FuzzOp {
    /// Whether this op may appear in a [`ConcurrentFuzzProgram`]: true for
    /// the stateless subset that needs nothing but the arena address.
    #[must_use]
    pub fn concurrent_safe(self) -> bool {
        matches!(
            self,
            FuzzOp::Write { .. }
                | FuzzOp::WriteByte { .. }
                | FuzzOp::NtWrite { .. }
                | FuzzOp::Flush { .. }
                | FuzzOp::Fence { .. }
                | FuzzOp::PersistRange { .. }
                | FuzzOp::RegVar { .. }
                | FuzzOp::RegRange { .. }
        )
    }
}

impl ConcurrentFuzzProgram {
    /// Total op count across all threads.
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.threads.iter().map(Vec::len).sum()
    }

    /// One boxed scheduler step replaying `op` at `loc` against `arena`.
    fn step(arena: u64, op: FuzzOp, loc: SourceLoc) -> StepFn<'static> {
        Box::new(move |ctx: &mut PmCtx| {
            let a = |off: u16| arena + u64::from(off);
            match op {
                FuzzOp::Write { off, val } => ctx.write_u64_at(a(off), val, loc)?,
                FuzzOp::WriteByte { off, val } => ctx.write_at(a(off), &[val], loc)?,
                FuzzOp::NtWrite { off, val } => {
                    ctx.nt_write_at(a(off), &val.to_le_bytes(), loc)?;
                }
                FuzzOp::Flush { off, kind } => {
                    ctx.flush_at(a(off), kind, loc)?;
                }
                FuzzOp::Fence { kind } => ctx.fence_at(kind, loc),
                FuzzOp::PersistRange { off, len } => {
                    ctx.persist_barrier_at(a(off), u64::from(len.max(1)), loc)?;
                }
                FuzzOp::RegVar { off } => ctx.register_commit_var(a(off), 8),
                FuzzOp::RegRange { var_off, off, len } => {
                    ctx.register_commit_range(a(var_off), a(off), u32::from(len.max(1)));
                }
                // Stateful ops never reach a concurrent program (generator
                // and codec both enforce the subset); replay stays total.
                _ => {}
            }
            Ok(())
        })
    }
}

impl ConcurrentWorkload for ConcurrentFuzzProgram {
    fn name(&self) -> &str {
        &self.name
    }

    fn pool_size(&self) -> u64 {
        POOL_SIZE
    }

    fn setup(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
        // Zero and persist the arena so post-failure reads are
        // well-defined — the raw-memory equivalent of the sequential
        // program's zeroed root object.
        let arena = ctx.pool().base() + CONC_ARENA_OFF;
        for w in 0..DATA_SIZE / 8 {
            ctx.write_u64(arena + w * 8, 0)?;
        }
        ctx.persist_barrier(arena, DATA_SIZE)?;
        Ok(())
    }

    fn roles(&self, base: u64) -> Vec<Box<dyn ThreadProgram>> {
        let arena = base + CONC_ARENA_OFF;
        self.threads
            .iter()
            .enumerate()
            .map(|(t, ops)| {
                let steps = ops
                    .iter()
                    .enumerate()
                    .map(|(i, &op)| Self::step(arena, op, conc_op_loc(t, i)))
                    .collect();
                Box::new(OpSequence::new(steps)) as Box<dyn ThreadProgram>
            })
            .collect()
    }

    fn post_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
        let arena = ctx.pool().base() + CONC_ARENA_OFF;
        for w in 0..DATA_SIZE / 8 {
            let _ = ctx.read_u64_at(arena + w * 8, post_loc(w as u32))?;
        }
        Ok(())
    }
}

// --- stable text codec (the `.fuzz` repro format) --------------------------

fn flush_name(k: FlushKind) -> &'static str {
    match k {
        FlushKind::Clwb => "clwb",
        FlushKind::Clflush => "clflush",
        FlushKind::Clflushopt => "clflushopt",
    }
}

fn fence_name(k: FenceKind) -> &'static str {
    match k {
        FenceKind::Sfence => "sfence",
        FenceKind::Mfence => "mfence",
        FenceKind::Drain => "drain",
    }
}

fn op_text(op: FuzzOp) -> String {
    match op {
        FuzzOp::Write { off, val } => format!("write {off} {val}"),
        FuzzOp::WriteByte { off, val } => format!("writebyte {off} {val}"),
        FuzzOp::NtWrite { off, val } => format!("ntwrite {off} {val}"),
        FuzzOp::Flush { off, kind } => format!("flush {} {off}", flush_name(kind)),
        FuzzOp::Fence { kind } => format!("fence {}", fence_name(kind)),
        FuzzOp::PersistRange { off, len } => format!("persist {off} {len}"),
        FuzzOp::TxBegin => "txbegin".to_owned(),
        FuzzOp::TxAdd { off, len } => format!("txadd {off} {len}"),
        FuzzOp::TxCommit => "txcommit".to_owned(),
        FuzzOp::TxAbort => "txabort".to_owned(),
        FuzzOp::RedoStage { off, val } => format!("redostage {off} {val}"),
        FuzzOp::RedoCommit => "redocommit".to_owned(),
        FuzzOp::Alloc { slot, len, zeroed } => {
            format!("alloc {slot} {len} {}", u8::from(zeroed))
        }
        FuzzOp::Free { slot } => format!("free {slot}"),
        FuzzOp::SlotWrite { slot, val } => format!("slotwrite {slot} {val}"),
        FuzzOp::RegVar { off } => format!("regvar {off}"),
        FuzzOp::RegRange { var_off, off, len } => {
            format!("regrange {var_off} {off} {len}")
        }
    }
}

impl FuzzProgram {
    /// Serializes the program to the stable line-oriented `.fuzz` text
    /// format (round-tripped by [`FuzzProgram::from_text`]).
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("xffuzz v1\n");
        out.push_str(&format!("name {}\n", self.name));
        for &op in &self.ops {
            out.push_str("op ");
            out.push_str(&op_text(op));
            out.push('\n');
        }
        out
    }

    /// Parses the `.fuzz` text format.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some("xffuzz v1") => {}
            other => return Err(format!("bad header: {other:?}")),
        }
        let name = match lines.next().and_then(|l| l.strip_prefix("name ")) {
            Some(n) if !n.is_empty() => n.to_owned(),
            _ => return Err("missing name line".to_owned()),
        };
        let mut ops = Vec::new();
        for (ln, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            let body = line
                .strip_prefix("op ")
                .ok_or_else(|| format!("line {}: expected `op ...`", ln + 3))?;
            let mut tok = body.split_whitespace();
            let op = parse_op(&mut tok).map_err(|e| format!("line {}: {e}", ln + 3))?;
            if tok.next().is_some() {
                return Err(format!("line {}: trailing tokens", ln + 3));
            }
            ops.push(op);
        }
        Ok(FuzzProgram { name, ops })
    }
}

/// Header line of the concurrent `.fuzz` text form (the sequential form
/// keeps `xffuzz v1`; replay tooling dispatches on the header).
pub const CONC_TEXT_HEADER: &str = "xffuzz c1";

impl ConcurrentFuzzProgram {
    /// Serializes the program to the concurrent `.fuzz` text format: the
    /// `xffuzz c1` header, the name and thread count, then one
    /// `op <thread> <op...>` line per op in thread-major order.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(CONC_TEXT_HEADER);
        out.push('\n');
        out.push_str(&format!("name {}\n", self.name));
        out.push_str(&format!("threads {}\n", self.threads.len()));
        for (t, ops) in self.threads.iter().enumerate() {
            for &op in ops {
                out.push_str(&format!("op {t} "));
                out.push_str(&op_text(op));
                out.push('\n');
            }
        }
        out
    }

    /// Parses the concurrent `.fuzz` text format.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line, out-of-range
    /// thread index, or op outside the concurrent-safe subset.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some(CONC_TEXT_HEADER) => {}
            other => return Err(format!("bad header: {other:?}")),
        }
        let name = match lines.next().and_then(|l| l.strip_prefix("name ")) {
            Some(n) if !n.is_empty() => n.to_owned(),
            _ => return Err("missing name line".to_owned()),
        };
        let n_threads: usize = match lines.next().and_then(|l| l.strip_prefix("threads ")) {
            Some(n) => n.parse().map_err(|_| "bad threads line".to_owned())?,
            None => return Err("missing threads line".to_owned()),
        };
        if n_threads == 0 {
            return Err("threads must be at least 1".to_owned());
        }
        let mut threads = vec![Vec::new(); n_threads];
        for (ln, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            let body = line
                .strip_prefix("op ")
                .ok_or_else(|| format!("line {}: expected `op ...`", ln + 4))?;
            let mut tok = body.split_whitespace();
            let t: usize = tok
                .next()
                .ok_or_else(|| format!("line {}: missing thread index", ln + 4))?
                .parse()
                .map_err(|_| format!("line {}: bad thread index", ln + 4))?;
            if t >= n_threads {
                return Err(format!("line {}: thread {t} out of range", ln + 4));
            }
            let op = parse_op(&mut tok).map_err(|e| format!("line {}: {e}", ln + 4))?;
            if tok.next().is_some() {
                return Err(format!("line {}: trailing tokens", ln + 4));
            }
            if !op.concurrent_safe() {
                return Err(format!(
                    "line {}: op not in the concurrent-safe subset",
                    ln + 4
                ));
            }
            threads[t].push(op);
        }
        Ok(ConcurrentFuzzProgram { name, threads })
    }
}

fn parse_op<'a>(tok: &mut impl Iterator<Item = &'a str>) -> Result<FuzzOp, String> {
    fn num<T: std::str::FromStr>(t: Option<&str>, what: &str) -> Result<T, String> {
        t.ok_or_else(|| format!("missing {what}"))?
            .parse()
            .map_err(|_| format!("bad {what}"))
    }
    let kind = tok.next().ok_or("empty op")?;
    Ok(match kind {
        "write" => FuzzOp::Write {
            off: num(tok.next(), "off")?,
            val: num(tok.next(), "val")?,
        },
        "writebyte" => FuzzOp::WriteByte {
            off: num(tok.next(), "off")?,
            val: num(tok.next(), "val")?,
        },
        "ntwrite" => FuzzOp::NtWrite {
            off: num(tok.next(), "off")?,
            val: num(tok.next(), "val")?,
        },
        "flush" => {
            let k = match tok.next() {
                Some("clwb") => FlushKind::Clwb,
                Some("clflush") => FlushKind::Clflush,
                Some("clflushopt") => FlushKind::Clflushopt,
                other => return Err(format!("bad flush kind {other:?}")),
            };
            FuzzOp::Flush {
                off: num(tok.next(), "off")?,
                kind: k,
            }
        }
        "fence" => FuzzOp::Fence {
            kind: match tok.next() {
                Some("sfence") => FenceKind::Sfence,
                Some("mfence") => FenceKind::Mfence,
                Some("drain") => FenceKind::Drain,
                other => return Err(format!("bad fence kind {other:?}")),
            },
        },
        "persist" => FuzzOp::PersistRange {
            off: num(tok.next(), "off")?,
            len: num(tok.next(), "len")?,
        },
        "txbegin" => FuzzOp::TxBegin,
        "txadd" => FuzzOp::TxAdd {
            off: num(tok.next(), "off")?,
            len: num(tok.next(), "len")?,
        },
        "txcommit" => FuzzOp::TxCommit,
        "txabort" => FuzzOp::TxAbort,
        "redostage" => FuzzOp::RedoStage {
            off: num(tok.next(), "off")?,
            val: num(tok.next(), "val")?,
        },
        "redocommit" => FuzzOp::RedoCommit,
        "alloc" => FuzzOp::Alloc {
            slot: num(tok.next(), "slot")?,
            len: num(tok.next(), "len")?,
            zeroed: num::<u8>(tok.next(), "zeroed")? != 0,
        },
        "free" => FuzzOp::Free {
            slot: num(tok.next(), "slot")?,
        },
        "slotwrite" => FuzzOp::SlotWrite {
            slot: num(tok.next(), "slot")?,
            val: num(tok.next(), "val")?,
        },
        "regvar" => FuzzOp::RegVar {
            off: num(tok.next(), "off")?,
        },
        "regrange" => FuzzOp::RegRange {
            var_off: num(tok.next(), "var_off")?,
            off: num(tok.next(), "off")?,
            len: num(tok.next(), "len")?,
        },
        other => return Err(format!("unknown op `{other}`")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xfdetector::XfDetector;

    fn sample() -> FuzzProgram {
        FuzzProgram {
            name: "fuzz-sample".to_owned(),
            ops: vec![
                FuzzOp::Write { off: 0, val: 7 },
                FuzzOp::Flush {
                    off: 0,
                    kind: FlushKind::Clwb,
                },
                FuzzOp::Fence {
                    kind: FenceKind::Sfence,
                },
                FuzzOp::TxBegin,
                FuzzOp::TxAdd { off: 64, len: 8 },
                FuzzOp::Write { off: 64, val: 9 },
                FuzzOp::TxCommit,
                FuzzOp::Alloc {
                    slot: 0,
                    len: 32,
                    zeroed: false,
                },
                FuzzOp::SlotWrite { slot: 0, val: 3 },
                FuzzOp::NtWrite { off: 128, val: 1 },
                FuzzOp::RedoStage { off: 200, val: 5 },
                FuzzOp::RedoCommit,
                FuzzOp::RegVar { off: 8 },
                FuzzOp::RegRange {
                    var_off: 8,
                    off: 16,
                    len: 16,
                },
                FuzzOp::Free { slot: 0 },
            ],
        }
    }

    #[test]
    fn text_round_trips() {
        let p = sample();
        let text = p.to_text();
        let back = FuzzProgram::from_text(&text).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn malformed_text_is_rejected() {
        assert!(FuzzProgram::from_text("").is_err());
        assert!(FuzzProgram::from_text("xffuzz v1\n").is_err());
        assert!(FuzzProgram::from_text("xffuzz v1\nname x\nop bogus 1\n").is_err());
        assert!(FuzzProgram::from_text("xffuzz v1\nname x\nop write 1\n").is_err());
        assert!(FuzzProgram::from_text("xffuzz v1\nname x\nop write 1 2 3\n").is_err());
    }

    #[test]
    fn sample_program_runs_through_the_detector() {
        let outcome = XfDetector::with_defaults().run(sample()).unwrap();
        assert_eq!(
            outcome.report.execution_failure_count(),
            0,
            "{}",
            outcome.report
        );
        assert!(outcome.stats.failure_points > 0);
    }

    fn conc_sample() -> ConcurrentFuzzProgram {
        ConcurrentFuzzProgram {
            name: "fuzz-c2-sample".to_owned(),
            threads: vec![
                vec![
                    FuzzOp::Write { off: 0, val: 7 },
                    FuzzOp::Flush {
                        off: 0,
                        kind: FlushKind::Clwb,
                    },
                    FuzzOp::RegVar { off: 64 },
                ],
                vec![
                    FuzzOp::NtWrite { off: 128, val: 3 },
                    FuzzOp::Fence {
                        kind: FenceKind::Sfence,
                    },
                    FuzzOp::PersistRange { off: 0, len: 16 },
                ],
            ],
        }
    }

    #[test]
    fn concurrent_text_round_trips() {
        let p = conc_sample();
        let text = p.to_text();
        let back = ConcurrentFuzzProgram::from_text(&text).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn concurrent_text_rejects_stateful_ops_and_bad_threads() {
        assert!(ConcurrentFuzzProgram::from_text("xffuzz v1\nname x\n").is_err());
        assert!(ConcurrentFuzzProgram::from_text("xffuzz c1\nname x\nthreads 0\n").is_err());
        assert!(ConcurrentFuzzProgram::from_text(
            "xffuzz c1\nname x\nthreads 2\nop 2 fence sfence\n"
        )
        .is_err());
        assert!(
            ConcurrentFuzzProgram::from_text("xffuzz c1\nname x\nthreads 2\nop 0 txbegin\n")
                .is_err()
        );
    }

    #[test]
    fn concurrent_sample_runs_through_every_engine_identically() {
        use xfdetector::{Mode, XfConfig};
        let reports: Vec<String> = [Mode::Batch, Mode::Parallel, Mode::Stream]
            .into_iter()
            .map(|mode| {
                let outcome = xfdetector::Session::builder()
                    .config(XfConfig {
                        threads: 2,
                        ..XfConfig::default()
                    })
                    .build()
                    .unwrap()
                    .run_concurrent(conc_sample(), mode)
                    .unwrap();
                assert_eq!(outcome.report.execution_failure_count(), 0);
                serde_json::to_string(&outcome.report).unwrap()
            })
            .collect();
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[0], reports[2]);
    }

    #[test]
    fn any_subsequence_replays_cleanly() {
        // The shrinker's precondition: dropping arbitrary ops never turns a
        // program into one that errors.
        let p = sample();
        for skip in 0..p.ops.len() {
            let mut ops = p.ops.clone();
            ops.remove(skip);
            let sub = FuzzProgram {
                name: p.name.clone(),
                ops,
            };
            let outcome = XfDetector::with_defaults().run(sub).unwrap();
            assert_eq!(outcome.report.execution_failure_count(), 0);
        }
    }
}
