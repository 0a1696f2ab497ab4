//! The traced PM execution context: the frontend of the reproduction.
//!
//! [`PmCtx`] couples a [`PmPool`] with trace emission and failure injection.
//! Every memory operation both updates the pool *and* appends an
//! [`xftrace::TraceEntry`]; every fence is an ordering point at which an
//! installed [`EngineHook`] may inject a failure (paper §4.2). The detector
//! engine in the `xfdetector` crate installs such a hook, snapshots the pool,
//! and runs the program's post-failure stage on a forked context.

use std::cell::Cell;
use std::rc::Rc;

use xftrace::{FenceKind, FlushKind, Op, SourceLoc, Stage, TraceBuf, TraceEntry};

use crate::{CowImage, FlushOutcome, PmError, PmImage, PmPool, CACHE_LINE};

/// Metadata passed to the [`EngineHook`] at each ordering point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderingPointInfo {
    /// `true` for explicitly requested failure points
    /// ([`PmCtx::add_failure_point`], Table 2 `addFailurePoint`); these skip
    /// the "no PM activity" elision.
    pub forced: bool,
    /// Whether any PM mutation happened since the previous ordering point.
    /// The engine uses this for the §5.4 optimization that elides failure
    /// points between back-to-back ordering points.
    pub had_pm_mutation: bool,
    /// Zero-based index of this ordering point within the pre-failure run.
    pub index: u64,
}

/// Receiver for ordering-point callbacks — implemented by the detector
/// engine, which uses them to inject failures (suspend, snapshot, run the
/// post-failure stage, §5.4 Figure 8a).
pub trait EngineHook {
    /// Called in the pre-failure stage immediately **before** the fence at
    /// `loc` executes, i.e. while pending write-backs are not yet guaranteed
    /// persistent — matching the paper's placement of failure points before
    /// each ordering point.
    fn on_ordering_point(&self, ctx: &mut PmCtx, loc: SourceLoc, info: OrderingPointInfo);
}

/// RAII guard marking a region of trusted PM-library internals.
///
/// While any such scope is alive, emitted trace entries carry
/// `internal == true` (their reads are exempt from bug checks) and ordinary
/// ordering points do not fire failure points, mirroring the paper's
/// function-granularity treatment of PMDK internals (§5.3, §5.5).
#[derive(Debug)]
pub struct InternalScope {
    depth: Rc<Cell<u32>>,
}

impl Drop for InternalScope {
    fn drop(&mut self) {
        self.depth.set(self.depth.get().saturating_sub(1));
    }
}

/// A traced persistent-memory execution context.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct PmCtx {
    pool: PmPool,
    trace: TraceBuf,
    stage: Stage,
    hook: Option<Rc<dyn EngineHook>>,
    roi: bool,
    skip_failure_depth: u32,
    skip_detection_depth: u32,
    internal_depth: Rc<Cell<u32>>,
    detection_complete: Rc<Cell<bool>>,
    pm_mutation_since_op: bool,
    ordering_point_count: u64,
    in_hook: bool,
    fire_on_writes: bool,
    current_tid: u32,
    tracing: bool,
    budget: Option<crate::budget::ArmedBudget>,
}

impl std::fmt::Debug for dyn EngineHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("EngineHook")
    }
}

impl PmCtx {
    /// Creates a context over `pool` with tracing enabled, no failure hook,
    /// and the whole program inside the region of interest.
    #[must_use]
    pub fn new(pool: PmPool) -> Self {
        PmCtx {
            pool,
            trace: TraceBuf::new(),
            stage: Stage::Pre,
            hook: None,
            roi: true,
            skip_failure_depth: 0,
            skip_detection_depth: 0,
            internal_depth: Rc::new(Cell::new(0)),
            detection_complete: Rc::new(Cell::new(false)),
            pm_mutation_since_op: false,
            ordering_point_count: 0,
            in_hook: false,
            fire_on_writes: false,
            current_tid: 0,
            tracing: true,
            budget: None,
        }
    }

    /// Installs the failure-injection hook (detector engine frontend).
    pub fn set_hook(&mut self, hook: Rc<dyn EngineHook>) {
        self.hook = Some(hook);
    }

    /// Removes the failure-injection hook.
    pub fn clear_hook(&mut self) {
        self.hook = None;
    }

    /// Disables or re-enables trace recording. With tracing off the context
    /// behaves like the uninstrumented original program (the "Original"
    /// baseline of Figure 12b); with tracing on but no hook installed it is
    /// the "Pure Pin" trace-only baseline.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Arms an execution [`Budget`](crate::Budget) on this context: every
    /// traced operation from now on is charged against it, and the first
    /// operation that exhausts an axis raises a
    /// [`BudgetOverrun`](crate::BudgetOverrun) panic payload (which the
    /// detection engines catch and record as a finding). The detector arms
    /// a fresh budget on every post-failure context it forks, so each
    /// recovery gets its own allowance. An unlimited budget is not armed.
    pub fn arm_budget(&mut self, budget: crate::Budget) {
        self.budget = if budget.is_unlimited() {
            None
        } else {
            crate::budget::install_quiet_overrun_hook();
            Some(crate::budget::ArmedBudget::new(budget))
        };
    }

    /// Ablation switch (DESIGN.md §4.1): when enabled, a failure point is
    /// considered before **every PM store**, not only before ordering
    /// points. The paper's insight (§4.2) is that this is wasted work —
    /// persistent state can only transition to consistent at an ordering
    /// point — and the ablation benchmark quantifies the cost.
    pub fn set_failure_point_on_writes(&mut self, on: bool) {
        self.fire_on_writes = on;
    }

    /// Forks a **post-failure** context over `image`: fresh pool (all lines
    /// clean — the cache hierarchy does not survive the failure), fresh trace
    /// buffer, no failure hook, shared `completeDetection` flag.
    #[must_use]
    pub fn fork_post(&self, image: &PmImage) -> PmCtx {
        self.fork_post_pool(PmPool::from_image(image))
    }

    /// Forks a **post-failure** context over a copy-on-write crash image:
    /// like [`PmCtx::fork_post`], but the forked pool shares the image's
    /// base instead of copying the whole pool ([`PmPool::from_cow`]).
    #[must_use]
    pub fn fork_post_cow(&self, image: &CowImage) -> PmCtx {
        self.fork_post_pool(PmPool::from_cow(image))
    }

    fn fork_post_pool(&self, pool: PmPool) -> PmCtx {
        PmCtx {
            pool,
            trace: TraceBuf::new(),
            stage: Stage::Post,
            hook: None,
            roi: true,
            skip_failure_depth: 0,
            skip_detection_depth: 0,
            internal_depth: Rc::new(Cell::new(0)),
            detection_complete: Rc::clone(&self.detection_complete),
            pm_mutation_since_op: false,
            ordering_point_count: 0,
            in_hook: false,
            fire_on_writes: false,
            current_tid: 0,
            tracing: true,
            budget: None,
        }
    }

    /// Creates a standalone **post-failure** context over `pool`, with its
    /// own `completeDetection` flag. Used by the parallel engine's workers,
    /// which have no parent context on their own thread.
    #[must_use]
    pub fn new_post(pool: PmPool) -> PmCtx {
        let mut ctx = PmCtx::new(pool);
        ctx.stage = Stage::Post;
        ctx
    }

    /// The underlying pool (volatile + media views).
    #[must_use]
    pub fn pool(&self) -> &PmPool {
        &self.pool
    }

    /// Mutable access to the pool. Intended for the detector engine and for
    /// tests; ordinary programs should use the traced operations so the
    /// shadow PM stays in sync.
    pub fn pool_mut(&mut self) -> &mut PmPool {
        &mut self.pool
    }

    /// The trace buffer entries are appended to.
    #[must_use]
    pub fn trace(&self) -> &TraceBuf {
        &self.trace
    }

    /// Which stage this context executes ([`Stage::Pre`] or [`Stage::Post`]).
    #[must_use]
    pub fn stage(&self) -> Stage {
        self.stage
    }

    /// Number of ordering points executed so far.
    #[must_use]
    pub fn ordering_point_count(&self) -> u64 {
        self.ordering_point_count
    }

    /// Whether `completeDetection` has been requested (Table 2).
    #[must_use]
    pub fn is_detection_complete(&self) -> bool {
        self.detection_complete.get()
    }

    // ---- control interface (paper Table 2) -------------------------------

    /// Marks the start of the region of interest: failure points fire and
    /// accesses are checked only inside it.
    pub fn roi_begin(&mut self) {
        self.roi = true;
    }

    /// Marks the end of the region of interest.
    pub fn roi_end(&mut self) {
        self.roi = false;
    }

    /// Whether execution is currently inside the region of interest.
    #[must_use]
    pub fn in_roi(&self) -> bool {
        self.roi
    }

    /// Terminates detection: no further failure points fire in this run
    /// (Table 2 `completeDetection`). Shared across the pre- and post-failure
    /// contexts.
    pub fn complete_detection(&mut self) {
        self.detection_complete.set(true);
    }

    /// Begins a region in which no failure points are injected
    /// (Table 2 `skipFailureBegin`).
    pub fn skip_failure_begin(&mut self) {
        self.skip_failure_depth += 1;
    }

    /// Ends a [`PmCtx::skip_failure_begin`] region.
    pub fn skip_failure_end(&mut self) {
        self.skip_failure_depth = self.skip_failure_depth.saturating_sub(1);
    }

    /// Begins a region whose accesses are exempt from bug checks
    /// (Table 2 `skipDetectionBegin`). The shadow PM is still updated.
    pub fn skip_detection_begin(&mut self) {
        self.skip_detection_depth += 1;
    }

    /// Ends a [`PmCtx::skip_detection_begin`] region.
    pub fn skip_detection_end(&mut self) {
        self.skip_detection_depth = self.skip_detection_depth.saturating_sub(1);
    }

    /// Switches the logical thread id stamped on subsequent trace entries.
    ///
    /// The cooperative interleaving scheduler calls this before every step
    /// it hands to a thread; everything else (including every post-failure
    /// context, which recovers single-threaded) stays on thread 0.
    pub fn set_current_thread(&mut self, tid: u32) {
        self.current_tid = tid;
    }

    /// The logical thread id currently stamped on trace entries.
    #[must_use]
    pub fn current_thread(&self) -> u32 {
        self.current_tid
    }

    /// Enters a trusted PM-library internal region; see [`InternalScope`].
    #[must_use]
    pub fn internal_scope(&self) -> InternalScope {
        self.internal_depth.set(self.internal_depth.get() + 1);
        InternalScope {
            depth: Rc::clone(&self.internal_depth),
        }
    }

    /// Whether execution is currently inside a library-internal scope.
    #[must_use]
    pub fn in_internal(&self) -> bool {
        self.internal_depth.get() > 0
    }

    /// Requests an additional failure point here (Table 2 `addFailurePoint`),
    /// e.g. in the middle of a checksum computation where no ordering point
    /// exists (§5.5).
    #[track_caller]
    pub fn add_failure_point(&mut self) {
        self.add_failure_point_at(SourceLoc::caller());
    }

    /// As [`PmCtx::add_failure_point`] with an explicit source location (for
    /// library wrappers that want to attribute the point to their caller).
    pub fn add_failure_point_at(&mut self, loc: SourceLoc) {
        self.maybe_fire_failure_point(loc, true);
    }

    /// Registers a commit variable (Table 2 `addCommitVar`): post-failure
    /// reads of it are benign cross-failure races, and writes to it drive the
    /// consistency FSM of its associated set (§3.2).
    #[track_caller]
    pub fn register_commit_var(&mut self, addr: u64, size: u32) {
        self.emit_at(Op::RegisterCommitVar { addr, size }, SourceLoc::caller());
    }

    /// Associates `[addr, addr + size)` with the commit variable at
    /// `var_addr` (Table 2 `addCommitRange`).
    #[track_caller]
    pub fn register_commit_range(&mut self, var_addr: u64, addr: u64, size: u32) {
        self.emit_at(
            Op::RegisterCommitRange {
                var_addr,
                addr,
                size,
            },
            SourceLoc::caller(),
        );
    }

    // ---- trace emission ---------------------------------------------------

    /// Appends a library-level event (transaction boundaries, allocations,
    /// commit-variable registrations) with an explicit source location.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `op` is an event, not a memory operation: memory
    /// operations must go through the typed accessors so the pool and the
    /// shadow PM stay in sync.
    pub fn emit_at(&mut self, op: Op, loc: SourceLoc) {
        debug_assert!(
            !matches!(
                op,
                Op::Write { .. }
                    | Op::Read { .. }
                    | Op::NtWrite { .. }
                    | Op::Flush { .. }
                    | Op::Fence { .. }
            ),
            "memory operations must use the typed PmCtx accessors"
        );
        if op.is_pm_mutation() {
            self.pm_mutation_since_op = true;
        }
        self.record(op, loc);
    }

    fn record(&mut self, op: Op, loc: SourceLoc) {
        if !self.tracing {
            return;
        }
        if let Some(budget) = self.budget.as_mut() {
            let mutated = if op.is_pm_mutation() {
                u64::from(op.range().map_or(0, |(_, size)| size))
            } else {
                0
            };
            if let Err(overrun) = budget.charge(mutated) {
                // Disarm before unwinding: a charge must never fire twice
                // for one overrun, even if workload code traces more
                // operations from inside a Drop impl during the unwind.
                self.budget = None;
                std::panic::panic_any(overrun);
            }
        }
        let internal = self.internal_depth.get() > 0;
        let checked = self.roi && self.skip_detection_depth == 0 && !internal;
        self.trace.record(
            TraceEntry::new(op, loc, self.stage, internal, checked).with_tid(self.current_tid),
        );
    }

    // ---- memory operations -------------------------------------------------

    /// Reads `buf.len()` bytes at `addr` (traced).
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] / [`PmError::ZeroSize`] for invalid
    /// ranges.
    #[track_caller]
    pub fn read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), PmError> {
        self.read_at(addr, buf, SourceLoc::caller())
    }

    /// As [`PmCtx::read`] with an explicit source location.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] / [`PmError::ZeroSize`] for invalid
    /// ranges.
    pub fn read_at(&mut self, addr: u64, buf: &mut [u8], loc: SourceLoc) -> Result<(), PmError> {
        self.pool.read(addr, buf)?;
        self.record(
            Op::Read {
                addr,
                size: buf.len() as u32,
            },
            loc,
        );
        Ok(())
    }

    /// Reads `size` bytes into a fresh vector (traced).
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] / [`PmError::ZeroSize`] for invalid
    /// ranges.
    #[track_caller]
    pub fn read_bytes(&mut self, addr: u64, size: u64) -> Result<Vec<u8>, PmError> {
        let mut buf = vec![0u8; size as usize];
        self.read_at(addr, &mut buf, SourceLoc::caller())?;
        Ok(buf)
    }

    /// Reads a little-endian `u64` (traced).
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] for invalid ranges.
    #[track_caller]
    pub fn read_u64(&mut self, addr: u64) -> Result<u64, PmError> {
        let mut b = [0u8; 8];
        self.read_at(addr, &mut b, SourceLoc::caller())?;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a little-endian `u64` with an explicit source location.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] for invalid ranges.
    pub fn read_u64_at(&mut self, addr: u64, loc: SourceLoc) -> Result<u64, PmError> {
        let mut b = [0u8; 8];
        self.read_at(addr, &mut b, loc)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a little-endian `u32` (traced).
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] for invalid ranges.
    #[track_caller]
    pub fn read_u32(&mut self, addr: u64) -> Result<u32, PmError> {
        let mut b = [0u8; 4];
        self.read_at(addr, &mut b, SourceLoc::caller())?;
        Ok(u32::from_le_bytes(b))
    }

    /// Reads one byte (traced).
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] for invalid ranges.
    #[track_caller]
    pub fn read_u8(&mut self, addr: u64) -> Result<u8, PmError> {
        let mut b = [0u8; 1];
        self.read_at(addr, &mut b, SourceLoc::caller())?;
        Ok(b[0])
    }

    /// Stores `data` at `addr` (traced; dirties covered lines).
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] / [`PmError::ZeroSize`] for invalid
    /// ranges.
    #[track_caller]
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), PmError> {
        self.write_at(addr, data, SourceLoc::caller())
    }

    /// As [`PmCtx::write`] with an explicit source location.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] / [`PmError::ZeroSize`] for invalid
    /// ranges.
    pub fn write_at(&mut self, addr: u64, data: &[u8], loc: SourceLoc) -> Result<(), PmError> {
        if self.fire_on_writes {
            self.maybe_fire_failure_point(loc, false);
        }
        self.pool.write(addr, data)?;
        self.pm_mutation_since_op = true;
        self.record(
            Op::Write {
                addr,
                size: data.len() as u32,
            },
            loc,
        );
        Ok(())
    }

    /// Writes a little-endian `u64` (traced).
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] for invalid ranges.
    #[track_caller]
    pub fn write_u64(&mut self, addr: u64, v: u64) -> Result<(), PmError> {
        self.write_at(addr, &v.to_le_bytes(), SourceLoc::caller())
    }

    /// Writes a little-endian `u64` with an explicit source location.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] for invalid ranges.
    pub fn write_u64_at(&mut self, addr: u64, v: u64, loc: SourceLoc) -> Result<(), PmError> {
        self.write_at(addr, &v.to_le_bytes(), loc)
    }

    /// Writes a little-endian `u32` (traced).
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] for invalid ranges.
    #[track_caller]
    pub fn write_u32(&mut self, addr: u64, v: u32) -> Result<(), PmError> {
        self.write_at(addr, &v.to_le_bytes(), SourceLoc::caller())
    }

    /// Writes one byte (traced).
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] for invalid ranges.
    #[track_caller]
    pub fn write_u8(&mut self, addr: u64, v: u8) -> Result<(), PmError> {
        self.write_at(addr, &[v], SourceLoc::caller())
    }

    /// Non-temporal store (traced; persists at the next fence).
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] / [`PmError::ZeroSize`] for invalid
    /// ranges.
    #[track_caller]
    pub fn nt_write(&mut self, addr: u64, data: &[u8]) -> Result<(), PmError> {
        self.nt_write_at(addr, data, SourceLoc::caller())
    }

    /// As [`PmCtx::nt_write`] with an explicit source location.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] / [`PmError::ZeroSize`] for invalid
    /// ranges.
    pub fn nt_write_at(&mut self, addr: u64, data: &[u8], loc: SourceLoc) -> Result<(), PmError> {
        self.pool.nt_write(addr, data)?;
        self.pm_mutation_since_op = true;
        self.record(
            Op::NtWrite {
                addr,
                size: data.len() as u32,
            },
            loc,
        );
        Ok(())
    }

    /// Issues a `CLWB` for the line containing `addr` (traced).
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] if `addr` is outside the pool.
    #[track_caller]
    pub fn clwb(&mut self, addr: u64) -> Result<FlushOutcome, PmError> {
        self.flush_at(addr, FlushKind::Clwb, SourceLoc::caller())
    }

    /// Issues a `CLFLUSH` for the line containing `addr` (traced).
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] if `addr` is outside the pool.
    #[track_caller]
    pub fn clflush(&mut self, addr: u64) -> Result<FlushOutcome, PmError> {
        self.flush_at(addr, FlushKind::Clflush, SourceLoc::caller())
    }

    /// Issues a `CLFLUSHOPT` for the line containing `addr` (traced).
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] if `addr` is outside the pool.
    #[track_caller]
    pub fn clflushopt(&mut self, addr: u64) -> Result<FlushOutcome, PmError> {
        self.flush_at(addr, FlushKind::Clflushopt, SourceLoc::caller())
    }

    /// Flush with explicit kind and source location.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] if `addr` is outside the pool.
    pub fn flush_at(
        &mut self,
        addr: u64,
        kind: FlushKind,
        loc: SourceLoc,
    ) -> Result<FlushOutcome, PmError> {
        let outcome = self.pool.flush_line(addr)?;
        self.pm_mutation_since_op = true;
        self.record(Op::Flush { addr, kind }, loc);
        Ok(outcome)
    }

    /// Flushes every line covering `[addr, addr + size)` (traced).
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] / [`PmError::ZeroSize`] for invalid
    /// ranges.
    #[track_caller]
    pub fn flush_range(&mut self, addr: u64, size: u64) -> Result<(), PmError> {
        self.flush_range_at(addr, size, SourceLoc::caller())
    }

    /// As [`PmCtx::flush_range`] with an explicit source location.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] / [`PmError::ZeroSize`] for invalid
    /// ranges.
    pub fn flush_range_at(&mut self, addr: u64, size: u64, loc: SourceLoc) -> Result<(), PmError> {
        if size == 0 {
            return Err(PmError::ZeroSize { addr });
        }
        let first = addr & !(CACHE_LINE - 1);
        let last = (addr + size - 1) & !(CACHE_LINE - 1);
        let mut line = first;
        loop {
            self.flush_at(line, FlushKind::Clwb, loc)?;
            if line == last {
                break;
            }
            line += CACHE_LINE;
        }
        Ok(())
    }

    /// `SFENCE`: orders pending write-backs. This is an ordering point — the
    /// failure hook fires **before** the fence executes.
    #[track_caller]
    pub fn sfence(&mut self) {
        self.fence_at(FenceKind::Sfence, SourceLoc::caller());
    }

    /// `MFENCE`: full fence; also an ordering point.
    #[track_caller]
    pub fn mfence(&mut self) {
        self.fence_at(FenceKind::Mfence, SourceLoc::caller());
    }

    /// Library-level drain (equivalent to `SFENCE`).
    #[track_caller]
    pub fn drain(&mut self) {
        self.fence_at(FenceKind::Drain, SourceLoc::caller());
    }

    /// Fence with explicit kind and source location.
    pub fn fence_at(&mut self, kind: FenceKind, loc: SourceLoc) {
        self.maybe_fire_failure_point(loc, false);
        self.record(Op::Fence { kind }, loc);
        self.pool.fence();
        self.ordering_point_count += 1;
        self.pm_mutation_since_op = false;
    }

    /// The paper's `persist_barrier()`: `CLWB` every line covering the range,
    /// then `SFENCE`.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] / [`PmError::ZeroSize`] for invalid
    /// ranges.
    #[track_caller]
    pub fn persist_barrier(&mut self, addr: u64, size: u64) -> Result<(), PmError> {
        self.persist_barrier_at(addr, size, SourceLoc::caller())
    }

    /// As [`PmCtx::persist_barrier`] with an explicit source location.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] / [`PmError::ZeroSize`] for invalid
    /// ranges.
    pub fn persist_barrier_at(
        &mut self,
        addr: u64,
        size: u64,
        loc: SourceLoc,
    ) -> Result<(), PmError> {
        self.flush_range_at(addr, size, loc)?;
        self.fence_at(FenceKind::Sfence, loc);
        Ok(())
    }

    fn maybe_fire_failure_point(&mut self, loc: SourceLoc, forced: bool) {
        if self.stage != Stage::Pre || self.in_hook || self.detection_complete.get() {
            return;
        }
        let Some(hook) = self.hook.clone() else {
            return;
        };
        if !self.roi || self.skip_failure_depth > 0 {
            return;
        }
        if !forced && self.internal_depth.get() > 0 {
            return;
        }
        let info = OrderingPointInfo {
            forced,
            had_pm_mutation: self.pm_mutation_since_op,
            index: self.ordering_point_count,
        };
        self.in_hook = true;
        hook.on_ordering_point(self, loc, info);
        self.in_hook = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    fn ctx() -> PmCtx {
        PmCtx::new(PmPool::new(4096).unwrap())
    }

    /// Hook that records every callback it receives.
    #[derive(Default)]
    struct Recorder {
        calls: RefCell<Vec<(SourceLoc, OrderingPointInfo)>>,
    }

    impl EngineHook for Recorder {
        fn on_ordering_point(&self, _ctx: &mut PmCtx, loc: SourceLoc, info: OrderingPointInfo) {
            self.calls.borrow_mut().push((loc, info));
        }
    }

    #[test]
    fn traced_ops_append_entries() {
        let mut c = ctx();
        let a = c.pool().base();
        c.write_u64(a, 1).unwrap();
        c.clwb(a).unwrap();
        c.sfence();
        let _ = c.read_u64(a).unwrap();
        let entries = c.trace().snapshot();
        assert_eq!(entries.len(), 4);
        assert!(matches!(entries[0].op, Op::Write { size: 8, .. }));
        assert!(matches!(
            entries[1].op,
            Op::Flush {
                kind: FlushKind::Clwb,
                ..
            }
        ));
        assert!(matches!(
            entries[2].op,
            Op::Fence {
                kind: FenceKind::Sfence
            }
        ));
        assert!(matches!(entries[3].op, Op::Read { size: 8, .. }));
        assert!(entries.iter().all(|e| e.stage == Stage::Pre));
        assert!(entries.iter().all(|e| e.checked && !e.internal));
    }

    #[test]
    fn persist_barrier_flushes_every_covered_line() {
        let mut c = ctx();
        let a = c.pool().base() + 32;
        c.write(a, &[1u8; 100]).unwrap(); // spans lines 0..=2
        c.persist_barrier(a, 100).unwrap();
        assert!(c.pool().is_persisted(a, 100));
        let flushes = c
            .trace()
            .snapshot()
            .iter()
            .filter(|e| matches!(e.op, Op::Flush { .. }))
            .count();
        assert_eq!(flushes, 3);
    }

    #[test]
    fn hook_fires_before_fence_with_pending_writebacks() {
        struct Check;
        impl EngineHook for Check {
            fn on_ordering_point(&self, ctx: &mut PmCtx, _l: SourceLoc, _i: OrderingPointInfo) {
                // At the failure point the data must NOT yet be persistent.
                let a = ctx.pool().base();
                assert!(!ctx.pool().is_persisted(a, 8));
            }
        }
        let mut c = ctx();
        c.set_hook(Rc::new(Check));
        let a = c.pool().base();
        c.write_u64(a, 9).unwrap();
        c.clwb(a).unwrap();
        c.sfence();
        assert!(c.pool().is_persisted(a, 8), "fence completed after hook");
    }

    #[test]
    fn hook_respects_roi_and_skip_regions() {
        let rec = Rc::new(Recorder::default());
        let mut c = ctx();
        c.set_hook(rec.clone());

        c.roi_end();
        c.sfence(); // outside RoI: no call
        c.roi_begin();
        c.skip_failure_begin();
        c.sfence(); // skip region: no call
        c.skip_failure_end();
        c.sfence(); // fires
        assert_eq!(rec.calls.borrow().len(), 1);
    }

    #[test]
    fn hook_not_fired_inside_internal_scope_unless_forced() {
        let rec = Rc::new(Recorder::default());
        let mut c = ctx();
        c.set_hook(rec.clone());
        {
            let _g = c.internal_scope();
            c.sfence(); // internal: no ordinary failure point
            c.add_failure_point(); // forced: fires even inside internals
        }
        c.sfence(); // fires normally
        let calls = rec.calls.borrow();
        assert_eq!(calls.len(), 2);
        assert!(calls[0].1.forced);
        assert!(!calls[1].1.forced);
    }

    #[test]
    fn had_pm_mutation_tracks_activity_between_ordering_points() {
        let rec = Rc::new(Recorder::default());
        let mut c = ctx();
        c.set_hook(rec.clone());
        let a = c.pool().base();
        c.write_u64(a, 1).unwrap();
        c.sfence(); // mutation since start
        c.sfence(); // nothing since previous fence
        let calls = rec.calls.borrow();
        assert!(calls[0].1.had_pm_mutation);
        assert!(!calls[1].1.had_pm_mutation);
        assert_eq!(calls[0].1.index, 0);
        assert_eq!(calls[1].1.index, 1);
    }

    #[test]
    fn complete_detection_stops_failure_points_across_fork() {
        let rec = Rc::new(Recorder::default());
        let mut c = ctx();
        c.set_hook(rec.clone());
        let mut post = c.fork_post(&c.pool().full_image());
        post.complete_detection(); // post-failure stage requests termination
        c.sfence();
        assert!(rec.calls.borrow().is_empty());
        assert!(c.is_detection_complete());
    }

    #[test]
    fn fork_post_starts_clean_with_fresh_trace() {
        let mut c = ctx();
        let a = c.pool().base();
        c.write_u64(a, 42).unwrap();
        let post = c.fork_post(&c.pool().full_image());
        assert_eq!(post.stage(), Stage::Post);
        assert_eq!(post.pool().read_u64(a).unwrap(), 42);
        assert!(post.pool().is_persisted(a, 8), "post pool starts clean");
        assert!(post.trace().is_empty());
    }

    #[test]
    fn internal_scope_marks_entries_and_unchecked() {
        let mut c = ctx();
        let a = c.pool().base();
        {
            let _g = c.internal_scope();
            c.write_u64(a, 1).unwrap();
        }
        c.write_u64(a, 2).unwrap();
        let entries = c.trace().snapshot();
        assert!(entries[0].internal && !entries[0].checked);
        assert!(!entries[1].internal && entries[1].checked);
    }

    #[test]
    fn skip_detection_marks_entries_unchecked_but_not_internal() {
        let mut c = ctx();
        let a = c.pool().base();
        c.skip_detection_begin();
        c.write_u64(a, 1).unwrap();
        c.skip_detection_end();
        let e = c.trace().snapshot()[0];
        assert!(!e.internal);
        assert!(!e.checked);
    }

    #[test]
    fn commit_var_registration_is_traced() {
        let mut c = ctx();
        let a = c.pool().base();
        c.register_commit_var(a, 8);
        c.register_commit_range(a, a + 64, 128);
        let entries = c.trace().snapshot();
        assert!(matches!(
            entries[0].op,
            Op::RegisterCommitVar { size: 8, .. }
        ));
        assert!(matches!(
            entries[1].op,
            Op::RegisterCommitRange { size: 128, .. }
        ));
    }

    // The rejection is a `debug_assert!`, so release builds have nothing
    // to test.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "typed PmCtx accessors")]
    fn emit_at_rejects_memory_ops_in_debug() {
        let mut c = ctx();
        c.emit_at(
            Op::Write {
                addr: c.pool().base(),
                size: 8,
            },
            SourceLoc::synthetic("<t>"),
        );
    }

    #[test]
    fn hook_does_not_refire_reentrantly() {
        struct Reenter;
        impl EngineHook for Reenter {
            fn on_ordering_point(&self, ctx: &mut PmCtx, _l: SourceLoc, info: OrderingPointInfo) {
                assert!(!info.forced);
                // A fence inside the hook must not recurse into the hook.
                ctx.sfence();
            }
        }
        let mut c = ctx();
        c.set_hook(Rc::new(Reenter));
        c.sfence(); // would overflow the stack if reentrant
    }

    #[test]
    fn source_loc_points_at_caller_line() {
        let mut c = ctx();
        let a = c.pool().base();
        c.write_u64(a, 1).unwrap(); // the loc of this line
        let e = c.trace().snapshot()[0];
        assert!(e.loc.file.ends_with("ctx.rs"));
        assert!(e.loc.line > 0);
    }
}
