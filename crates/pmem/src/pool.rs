//! The persistent-memory pool: volatile view, media view, per-line states.

use std::cell::Cell;
use std::sync::Arc;

use serde::Serialize;

use crate::snapshot::{fresh_base, CowImage, LineBuf};
use crate::PmError;

/// Cache-line size in bytes (x86).
pub const CACHE_LINE: u64 = 64;

/// Default pool base address.
///
/// The paper pins PM pools to a predefined virtual address via PMDK's
/// `PMEM_MMAP_HINT=0x10000000000` so that PM addresses are stable across the
/// pre- and post-failure executions (§5.3). We adopt the same constant.
pub const DEFAULT_BASE: u64 = 0x100_0000_0000;

/// Persistence state of one cache line, mirroring the volatile part of the
/// shadow-PM FSM (paper Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum LineState {
    /// Media and cache agree; survives a failure.
    Clean,
    /// Stored to but not written back; lost (or arbitrarily evicted) on
    /// failure.
    Dirty,
    /// Write-back issued (`CLWB`) but not yet ordered by a fence; persists at
    /// the next fence, but until then a failure may or may not preserve it.
    Flushing,
}

/// The [`LineState`] of every line of a pool as two line bit-sets:
/// [`LineState::Dirty`] lines in `dirty`, [`LineState::Flushing`] lines in
/// `flushing`, and [`LineState::Clean`] lines in neither. Words are
/// allocated on the first store that reaches them, so a pool forked from a
/// crash image, all clean, holds none.
#[derive(Debug, Clone, Default)]
struct LineStates {
    dirty: Vec<u64>,
    flushing: Vec<u64>,
}

impl LineStates {
    fn get(&self, li: usize) -> LineState {
        let bit = |set: &[u64]| set.get(li / 64).is_some_and(|w| w >> (li % 64) & 1 != 0);
        if bit(&self.dirty) {
            LineState::Dirty
        } else if bit(&self.flushing) {
            LineState::Flushing
        } else {
            LineState::Clean
        }
    }

    fn set(&mut self, li: usize, state: LineState) {
        let assign = |set: &mut Vec<u64>, on: bool| {
            let (word, bit) = (li / 64, 1u64 << (li % 64));
            if on {
                if set.len() <= word {
                    set.resize(word + 1, 0);
                }
                set[word] |= bit;
            } else if let Some(w) = set.get_mut(word) {
                *w &= !bit;
            }
        };
        assign(&mut self.dirty, state == LineState::Dirty);
        assign(&mut self.flushing, state == LineState::Flushing);
    }

    /// The lines that are not [`LineState::Clean`], ascending.
    fn unclean(&self) -> impl Iterator<Item = usize> + '_ {
        let words = self.dirty.len().max(self.flushing.len());
        (0..words).flat_map(move |w| {
            let mut m = self.dirty.get(w).copied().unwrap_or(0)
                | self.flushing.get(w).copied().unwrap_or(0);
            std::iter::from_fn(move || {
                (m != 0).then(|| {
                    let bit = m.trailing_zeros() as usize;
                    m &= m - 1;
                    w * 64 + bit
                })
            })
        })
    }
}

/// Outcome of a flush operation, used by the detector to flag performance
/// bugs (redundant write-backs — the yellow edges of Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushOutcome {
    /// The line was dirty; a write-back is now pending.
    Initiated,
    /// The line was already pending write-back: the flush is redundant.
    RedundantPending,
    /// The line was clean: the flush is redundant.
    RedundantClean,
}

/// A snapshot of pool contents, as captured at a failure point.
///
/// The paper's frontend copies the whole PM pool file at each failure point
/// (Figure 8, step ③); the copy contains *all* updates, including those not
/// yet persisted, and the shadow PM is what knows the difference (footnote 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PmImage {
    base: u64,
    bytes: Vec<u8>,
}

impl PmImage {
    /// Creates an image from raw parts.
    #[must_use]
    pub fn from_parts(base: u64, bytes: Vec<u8>) -> Self {
        PmImage { base, bytes }
    }

    /// Base address the image was captured at.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Length of the image in bytes.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Whether the image is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Raw image contents.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Writes the image to a pool file: a 24-byte header (magic, base,
    /// length) followed by the raw contents — the stand-in for a DAX pool
    /// file on a PM filesystem.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_to_file(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        use std::io::Write;
        let mut f = std::fs::File::create(path)?;
        f.write_all(&Self::FILE_MAGIC.to_le_bytes())?;
        f.write_all(&self.base.to_le_bytes())?;
        f.write_all(&(self.bytes.len() as u64).to_le_bytes())?;
        f.write_all(&self.bytes)?;
        f.flush()
    }

    /// Reads an image back from a pool file written by
    /// [`PmImage::write_to_file`].
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for a bad magic value or a truncated file, and
    /// propagates I/O errors.
    pub fn read_from_file(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        use std::io::Read;
        let mut f = std::fs::File::open(path)?;
        let mut hdr = [0u8; 24];
        f.read_exact(&mut hdr)?;
        let magic = u64::from_le_bytes(hdr[0..8].try_into().expect("8 bytes"));
        if magic != Self::FILE_MAGIC {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "not a pmem pool file (bad magic)",
            ));
        }
        let base = u64::from_le_bytes(hdr[8..16].try_into().expect("8 bytes"));
        let len = u64::from_le_bytes(hdr[16..24].try_into().expect("8 bytes"));
        let mut bytes = vec![
            0u8;
            usize::try_from(len).map_err(|_| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "image too large")
            })?
        ];
        f.read_exact(&mut bytes)?;
        Ok(PmImage { base, bytes })
    }

    /// Magic value identifying pool files ("PMIMAGE1").
    const FILE_MAGIC: u64 = u64::from_le_bytes(*b"PMIMAGE1");
}

/// A simulated persistent-memory pool.
///
/// The pool keeps two byte views: `volatile` (the program-visible values,
/// i.e. memory as filtered through the cache hierarchy) and `media` (the
/// values guaranteed to be on the persistent medium). Stores update
/// `volatile` and dirty the covering cache lines; flushes and fences move
/// line contents to `media` following x86 persistence semantics.
///
/// Both views are copy-on-write [`LineBuf`]s over a shared base image: a
/// fresh pool allocates **one** zeroed buffer that both views (and any
/// [`CowImage`] snapshot taken later) reference, and only written cache
/// lines are ever copied. [`PmPool::snapshot_bytes_copied`] counts every
/// byte of snapshot-related copying (line faults, delta capture, image
/// materialization and restoration), which is the raw material for the
/// `snapshot_bytes_copied` statistic in the detection engine.
///
/// # Example
///
/// ```
/// use pmem::{PmPool, LineState};
///
/// # fn main() -> Result<(), pmem::PmError> {
/// let mut pool = PmPool::new(1024)?;
/// let a = pool.base();
/// pool.write(a, &7u64.to_le_bytes())?;
/// assert_eq!(pool.line_state(a)?, LineState::Dirty);
/// pool.flush_line(a)?;
/// pool.fence();
/// assert_eq!(pool.line_state(a)?, LineState::Clean);
/// assert!(pool.is_persisted(a, 8));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PmPool {
    base: u64,
    volatile: LineBuf,
    media: LineBuf,
    lines: LineStates,
    /// Indices of lines that may be in [`LineState::Flushing`]; lets
    /// [`PmPool::fence`] run in O(pending) instead of O(pool size). May
    /// contain stale entries for lines re-dirtied after their flush.
    flushing: Vec<usize>,
    /// Bytes copied for snapshot bookkeeping (COW faults, delta capture,
    /// materialization, restoration). A [`Cell`] because materializing an
    /// image is conceptually `&self`.
    copied: Cell<u64>,
    /// Completed ordering epochs (fences). Drives the CXL reorder log.
    epoch: u64,
    /// Armed by [`PmPool::enable_reorder_log`]: device-side reorder-buffer
    /// model for [`PersistDomain::CxlGpf`](crate::PersistDomain::CxlGpf)
    /// crash-image sampling. `None` (the default) costs nothing.
    reorder: Option<ReorderLog>,
}

/// One media commit captured by the reorder log: the line that persisted,
/// the epoch it persisted in, and the media content it overwrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReorderEntry {
    /// Ordering epoch the commit belongs to (the fence that completed it;
    /// eager evictions between fences belong to the upcoming epoch).
    pub epoch: u64,
    /// Cache-line index within the pool.
    pub line: usize,
    /// Media content of the line immediately before this commit.
    pub prev: [u8; CACHE_LINE as usize],
}

/// The CXL device reorder buffer: every media commit of the last `window`
/// epochs, in arrival order, each with the content it overwrote.
#[derive(Debug, Clone)]
struct ReorderLog {
    window: usize,
    entries: Vec<ReorderEntry>,
}

impl PmPool {
    /// Creates a pool of `size` bytes at the default base address
    /// ([`DEFAULT_BASE`]), zero-initialized and fully persistent.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::BadPoolSize`] unless `size` is a positive multiple
    /// of the cache-line size.
    pub fn new(size: u64) -> Result<Self, PmError> {
        Self::with_base(DEFAULT_BASE, size)
    }

    /// Creates a pool of `size` bytes at `base`.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::BadPoolSize`] unless `size` is a positive multiple
    /// of [`CACHE_LINE`], and [`PmError::BadBaseAlignment`] unless `base` is
    /// cache-line aligned.
    pub fn with_base(base: u64, size: u64) -> Result<Self, PmError> {
        if size == 0 || !size.is_multiple_of(CACHE_LINE) {
            return Err(PmError::BadPoolSize { size });
        }
        if !base.is_multiple_of(CACHE_LINE) {
            return Err(PmError::BadBaseAlignment { base });
        }
        let len = usize::try_from(size).map_err(|_| PmError::BadPoolSize { size })?;
        // One zeroed allocation shared by both views: nothing is copied
        // until a line is actually written.
        let (shared, generation) = fresh_base(vec![0; len]);
        Ok(PmPool {
            base,
            volatile: LineBuf::from_base(Arc::clone(&shared), generation),
            media: LineBuf::from_base(shared, generation),
            lines: LineStates::default(),
            flushing: Vec::new(),
            copied: Cell::new(0),
            epoch: 0,
            reorder: None,
        })
    }

    /// Reconstructs a pool from a failure-point image. All lines start clean:
    /// after a (simulated) power failure the cache hierarchy is empty, so
    /// memory and media agree.
    ///
    /// Copies the image bytes **once** into a base shared by both views
    /// (the seed engine cloned them into each view separately).
    #[must_use]
    pub fn from_image(image: &PmImage) -> Self {
        let (shared, generation) = fresh_base(image.bytes.clone());
        let pool = PmPool {
            base: image.base,
            volatile: LineBuf::from_base(Arc::clone(&shared), generation),
            media: LineBuf::from_base(shared, generation),
            lines: LineStates::default(),
            flushing: Vec::new(),
            copied: Cell::new(0),
            epoch: 0,
            reorder: None,
        };
        pool.account(image.len());
        pool
    }

    /// Reconstructs a pool from a copy-on-write crash image **without**
    /// materializing it: both views share the image's base `Arc` and only
    /// the delta lines are copied into the overlays.
    #[must_use]
    pub fn from_cow(image: &CowImage) -> Self {
        let shared = Arc::clone(image.base_bytes());
        let generation = image.generation();
        let mut volatile = LineBuf::from_base(Arc::clone(&shared), generation);
        let mut media = LineBuf::from_base(shared, generation);
        for (li, line) in image.delta_lines() {
            volatile.set_line(*li as usize, line);
            media.set_line(*li as usize, line);
        }
        let pool = PmPool {
            base: image.base(),
            lines: LineStates::default(),
            volatile,
            media,
            flushing: Vec::new(),
            copied: Cell::new(0),
            epoch: 0,
            reorder: None,
        };
        pool.account(2 * CACHE_LINE * image.delta_count() as u64);
        pool
    }

    /// Total bytes copied so far for snapshot bookkeeping on this pool:
    /// COW line faults, delta capture, image materialization
    /// ([`PmPool::full_image`] and friends) and restoration. The detection
    /// engine aggregates this into its `snapshot_bytes_copied` statistic.
    #[must_use]
    pub fn snapshot_bytes_copied(&self) -> u64 {
        self.copied.get()
    }

    fn account(&self, bytes: u64) {
        self.copied.set(self.copied.get() + bytes);
    }

    /// Pool base address.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Pool length in bytes.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.volatile.len() as u64
    }

    /// Whether the pool has zero length (never true for a constructed pool).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.volatile.len() == 0
    }

    /// Whether `[addr, addr + size)` lies inside the pool.
    #[must_use]
    pub fn contains(&self, addr: u64, size: u64) -> bool {
        addr >= self.base
            && size > 0
            && addr
                .checked_add(size)
                .is_some_and(|end| end <= self.base + self.len())
    }

    fn offset_of(&self, addr: u64, size: u64) -> Result<usize, PmError> {
        if size == 0 {
            return Err(PmError::ZeroSize { addr });
        }
        if !self.contains(addr, size) {
            return Err(PmError::OutOfBounds {
                addr,
                size,
                base: self.base,
                len: self.len(),
            });
        }
        Ok((addr - self.base) as usize)
    }

    fn line_index(&self, addr: u64) -> usize {
        ((addr - self.base) / CACHE_LINE) as usize
    }

    /// Reads `buf.len()` bytes from the volatile view at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] / [`PmError::ZeroSize`] for invalid
    /// ranges.
    pub fn read(&self, addr: u64, buf: &mut [u8]) -> Result<(), PmError> {
        let off = self.offset_of(addr, buf.len() as u64)?;
        self.volatile.read_into(off, buf);
        Ok(())
    }

    /// Stores `data` at `addr`, dirtying every covered cache line.
    ///
    /// A store to a line that is pending write-back ([`LineState::Flushing`])
    /// first completes that write-back to media — a dirty line may be evicted
    /// at any time on real hardware, so an early persist is always a legal
    /// outcome — and then re-dirties the line.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] / [`PmError::ZeroSize`] for invalid
    /// ranges.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), PmError> {
        let off = self.offset_of(addr, data.len() as u64)?;
        let first = self.line_index(addr);
        let last = self.line_index(addr + data.len() as u64 - 1);
        for li in first..=last {
            if self.lines.get(li) == LineState::Flushing {
                // An eager eviction commits to media between fences: it
                // belongs to the upcoming ordering epoch.
                self.log_reorder(li);
                self.persist_line_to_media(li);
            }
            self.lines.set(li, LineState::Dirty);
        }
        let faulted = self.volatile.write_at(off, data) + self.volatile.maybe_rebase();
        self.account(faulted);
        Ok(())
    }

    /// Non-temporal store: updates the volatile view and marks the covered
    /// lines as pending persist (they reach media at the next fence without a
    /// separate flush), matching x86 NT-store + `SFENCE` semantics.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] / [`PmError::ZeroSize`] for invalid
    /// ranges.
    pub fn nt_write(&mut self, addr: u64, data: &[u8]) -> Result<(), PmError> {
        let off = self.offset_of(addr, data.len() as u64)?;
        let faulted = self.volatile.write_at(off, data) + self.volatile.maybe_rebase();
        self.account(faulted);
        let first = self.line_index(addr);
        let last = self.line_index(addr + data.len() as u64 - 1);
        for li in first..=last {
            if self.lines.get(li) != LineState::Flushing {
                self.flushing.push(li);
            }
            self.lines.set(li, LineState::Flushing);
        }
        Ok(())
    }

    /// Issues a cache-line write-back (`CLWB`-style) for the line containing
    /// `addr`. The data reaches media only at the next [`PmPool::fence`].
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] if `addr` is outside the pool.
    pub fn flush_line(&mut self, addr: u64) -> Result<FlushOutcome, PmError> {
        self.offset_of(addr, 1)?;
        let li = self.line_index(addr);
        Ok(match self.lines.get(li) {
            LineState::Dirty => {
                self.lines.set(li, LineState::Flushing);
                self.flushing.push(li);
                FlushOutcome::Initiated
            }
            LineState::Flushing => FlushOutcome::RedundantPending,
            LineState::Clean => FlushOutcome::RedundantClean,
        })
    }

    /// Orders all pending write-backs: every [`LineState::Flushing`] line is
    /// copied to media and becomes clean. This is the `SFENCE` of the
    /// `persist_barrier()` idiom and the paper's ordering point (§4.2).
    pub fn fence(&mut self) {
        let pending = std::mem::take(&mut self.flushing);
        for li in pending {
            // Stale entries (lines re-dirtied after their flush) stay in
            // whatever state the later store left them in.
            if self.lines.get(li) == LineState::Flushing {
                self.log_reorder(li);
                self.persist_line_to_media(li);
                self.lines.set(li, LineState::Clean);
            }
        }
        self.epoch += 1;
        if let Some(log) = self.reorder.as_mut() {
            // Commits older than `window` epochs are guaranteed on media;
            // drop them so the log stays O(window × lines).
            let horizon = self.epoch.saturating_sub(log.window as u64);
            log.entries.retain(|e| e.epoch > horizon);
        }
    }

    /// Arms the device-side reorder log with a `window`-epoch buffer: from
    /// now on every media commit records the content it overwrites, and
    /// [`reorder_window_image`](crate::reorder_window_image) can sample
    /// crash images in which any suffix of the in-window commits (under a
    /// seeded permutation) has not reached media. Used by the
    /// [`PersistDomain::CxlGpf`](crate::PersistDomain::CxlGpf) model;
    /// un-armed pools pay nothing.
    pub fn enable_reorder_log(&mut self, window: usize) {
        self.reorder = Some(ReorderLog {
            window,
            entries: Vec::new(),
        });
    }

    /// Completed ordering epochs (fences) on this pool.
    #[must_use]
    pub fn persist_epoch(&self) -> u64 {
        self.epoch
    }

    /// The in-window commits of the armed reorder log, in arrival order
    /// (empty when no log is armed).
    #[must_use]
    pub fn reorder_entries(&self) -> &[ReorderEntry] {
        self.reorder.as_ref().map_or(&[], |log| &log.entries)
    }

    fn log_reorder(&mut self, li: usize) {
        if self.reorder.is_none() {
            return;
        }
        // Capture the pre-image before taking the mutable log borrow.
        let mut prev = [0u8; CACHE_LINE as usize];
        prev.copy_from_slice(self.media.line(li));
        let epoch = self.epoch + 1;
        if let Some(log) = self.reorder.as_mut() {
            log.entries.push(ReorderEntry {
                epoch,
                line: li,
                prev,
            });
        }
    }

    fn persist_line_to_media(&mut self, li: usize) {
        // Fast path: neither view has faulted the line and both still share
        // the same base, so media already equals volatile for this line.
        if self.volatile.overlay_is_none(li)
            && self.media.overlay_is_none(li)
            && Arc::ptr_eq(self.volatile.base_arc(), self.media.base_arc())
        {
            return;
        }
        let mut line = [0u8; CACHE_LINE as usize];
        line.copy_from_slice(self.volatile.line(li));
        self.media.set_line(li, &line);
        let rebased = self.media.maybe_rebase();
        self.account(rebased);
    }

    /// State of the line containing `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] if `addr` is outside the pool.
    pub fn line_state(&self, addr: u64) -> Result<LineState, PmError> {
        self.offset_of(addr, 1)?;
        Ok(self.lines.get(self.line_index(addr)))
    }

    /// Persistence oracle: whether every byte of `[addr, addr + size)` is
    /// guaranteed to be on media (all covering lines clean).
    ///
    /// Out-of-range queries return `false`.
    #[must_use]
    pub fn is_persisted(&self, addr: u64, size: u64) -> bool {
        if !self.contains(addr, size) {
            return false;
        }
        let first = self.line_index(addr);
        let last = self.line_index(addr + size - 1);
        (first..=last).all(|li| self.lines.get(li) == LineState::Clean)
    }

    /// Number of lines currently not guaranteed persistent (dirty or pending
    /// write-back).
    #[must_use]
    pub fn unpersisted_line_count(&self) -> usize {
        self.lines.unclean().count()
    }

    /// Snapshot of the **volatile** view — the paper's failure-point image
    /// copy, which contains all updates including non-persisted ones
    /// (footnote 3).
    ///
    /// This is a full materialization (it copies the pool); the engine's
    /// copy-on-write path uses [`PmPool::cow_full_image`] instead.
    #[must_use]
    pub fn full_image(&self) -> PmImage {
        self.account(self.len());
        PmImage {
            base: self.base,
            bytes: self.volatile.to_bytes(),
        }
    }

    /// Snapshot of the **media** view — what a failure is guaranteed to
    /// preserve if no further eviction happened.
    ///
    /// A full materialization; see [`PmPool::cow_media_image`] for the
    /// copy-on-write form.
    #[must_use]
    pub fn media_image(&self) -> PmImage {
        self.account(self.len());
        PmImage {
            base: self.base,
            bytes: self.media.to_bytes(),
        }
    }

    /// Produces a crash image where, for each non-clean line, `keep(line)`
    /// decides whether the volatile contents made it to media before the
    /// failure. This enumerates the "possible interleavings" of §3.1: any
    /// subset of dirty/flushing lines may have been evicted or drained.
    ///
    /// A full materialization; see [`PmPool::cow_crash_image_with`] for the
    /// copy-on-write form (which consults `keep` identically, so randomized
    /// policies draw the same decisions from a given RNG stream).
    #[must_use]
    pub fn crash_image_with<F>(&self, mut keep: F) -> PmImage
    where
        F: FnMut(usize) -> bool,
    {
        self.account(self.len());
        let mut bytes = self.media.to_bytes();
        for li in self.lines.unclean() {
            if keep(li) {
                let start = li * CACHE_LINE as usize;
                let end = start + CACHE_LINE as usize;
                bytes[start..end].copy_from_slice(self.volatile.line(li));
            }
        }
        PmImage {
            base: self.base,
            bytes,
        }
    }

    /// Copy-on-write snapshot of the **volatile** view: shares the view's
    /// base `Arc` and copies only the lines that differ from it. Same
    /// contents as [`PmPool::full_image`] at a fraction of the copying.
    #[must_use]
    pub fn cow_full_image(&self) -> CowImage {
        let (image, copied) = self.volatile.capture(self.base);
        self.account(copied);
        image
    }

    /// Copy-on-write snapshot of the **media** view; same contents as
    /// [`PmPool::media_image`].
    #[must_use]
    pub fn cow_media_image(&self) -> CowImage {
        let (image, copied) = self.media.capture(self.base);
        self.account(copied);
        image
    }

    /// Copy-on-write counterpart of [`PmPool::crash_image_with`]: the image
    /// is expressed as deltas against the media view's base. `keep` is
    /// consulted for exactly the same lines in the same order as in the
    /// materializing version, so a randomized policy produces the same
    /// crash state through either path.
    #[must_use]
    pub fn cow_crash_image_with<F>(&self, mut keep: F) -> CowImage
    where
        F: FnMut(usize) -> bool,
    {
        let mut deltas: Vec<(u32, [u8; CACHE_LINE as usize])> = Vec::new();
        let mut push_if_differs = |li: usize, line: &[u8], base_line: &[u8]| {
            if line != base_line {
                let mut copy = [0u8; CACHE_LINE as usize];
                copy.copy_from_slice(line);
                deltas.push((li as u32, copy));
            }
        };
        for li in 0..self.media.len() / CACHE_LINE as usize {
            let start = li * CACHE_LINE as usize;
            let base_line = &self.media.base_arc()[start..start + CACHE_LINE as usize];
            if self.lines.get(li) != LineState::Clean && keep(li) {
                // The line drained to media before the failure: volatile
                // contents survive.
                push_if_differs(li, self.volatile.line(li), base_line);
            } else if !self.media.overlay_is_none(li) {
                push_if_differs(li, self.media.line(li), base_line);
            }
        }
        let copied = (deltas.len() as u64) * CACHE_LINE;
        self.account(copied);
        CowImage::from_base_and_deltas(
            self.base,
            self.media.generation(),
            Arc::clone(self.media.base_arc()),
            deltas,
        )
    }

    /// Overwrites the pool from `image` and marks everything clean.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::ImageMismatch`] if the image geometry differs from
    /// the pool's.
    pub fn restore(&mut self, image: &PmImage) -> Result<(), PmError> {
        if image.base != self.base || image.len() != self.len() {
            return Err(PmError::ImageMismatch {
                image_base: image.base,
                image_len: image.len(),
                pool_base: self.base,
                pool_len: self.len(),
            });
        }
        let (shared, generation) = fresh_base(image.bytes.clone());
        self.volatile = LineBuf::from_base(Arc::clone(&shared), generation);
        self.media = LineBuf::from_base(shared, generation);
        self.lines = LineStates::default();
        self.flushing.clear();
        self.account(image.len());
        Ok(())
    }

    /// Reads a little-endian `u64` from the volatile view.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] for invalid ranges.
    pub fn read_u64(&self, addr: u64) -> Result<u64, PmError> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] for invalid ranges.
    pub fn write_u64(&mut self, addr: u64, v: u64) -> Result<(), PmError> {
        self.write(addr, &v.to_le_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> PmPool {
        PmPool::new(4096).unwrap()
    }

    #[test]
    fn new_pool_is_clean_and_zeroed() {
        let p = pool();
        assert_eq!(p.len(), 4096);
        assert_eq!(p.unpersisted_line_count(), 0);
        assert_eq!(p.read_u64(p.base()).unwrap(), 0);
        assert!(p.is_persisted(p.base(), 4096));
    }

    #[test]
    fn rejects_bad_geometry() {
        assert_eq!(
            PmPool::new(0).unwrap_err(),
            PmError::BadPoolSize { size: 0 }
        );
        assert_eq!(
            PmPool::new(100).unwrap_err(),
            PmError::BadPoolSize { size: 100 }
        );
        assert_eq!(
            PmPool::with_base(7, 64).unwrap_err(),
            PmError::BadBaseAlignment { base: 7 }
        );
    }

    #[test]
    fn write_dirties_then_flush_fence_persists() {
        let mut p = pool();
        let a = p.base() + 128;
        p.write_u64(a, 0xdead_beef).unwrap();
        assert_eq!(p.line_state(a).unwrap(), LineState::Dirty);
        assert!(!p.is_persisted(a, 8));

        assert_eq!(p.flush_line(a).unwrap(), FlushOutcome::Initiated);
        assert_eq!(p.line_state(a).unwrap(), LineState::Flushing);
        assert!(!p.is_persisted(a, 8), "flushing is not yet ordered");

        p.fence();
        assert_eq!(p.line_state(a).unwrap(), LineState::Clean);
        assert!(p.is_persisted(a, 8));
        assert_eq!(
            p.media_image().bytes()[128..136],
            0xdead_beefu64.to_le_bytes()
        );
    }

    #[test]
    fn redundant_flushes_are_reported() {
        let mut p = pool();
        let a = p.base();
        assert_eq!(p.flush_line(a).unwrap(), FlushOutcome::RedundantClean);
        p.write_u64(a, 1).unwrap();
        p.flush_line(a).unwrap();
        assert_eq!(p.flush_line(a).unwrap(), FlushOutcome::RedundantPending);
    }

    #[test]
    fn fence_without_flush_does_not_persist_dirty_lines() {
        let mut p = pool();
        let a = p.base() + 64;
        p.write_u64(a, 3).unwrap();
        p.fence();
        assert_eq!(p.line_state(a).unwrap(), LineState::Dirty);
        assert!(!p.is_persisted(a, 8));
        assert_eq!(p.media_image().bytes()[64], 0, "media unchanged");
    }

    #[test]
    fn write_spanning_lines_dirties_both() {
        let mut p = pool();
        let a = p.base() + 60; // crosses the 64-byte boundary
        p.write(a, &[1u8; 8]).unwrap();
        assert_eq!(p.line_state(p.base()).unwrap(), LineState::Dirty);
        assert_eq!(p.line_state(p.base() + 64).unwrap(), LineState::Dirty);
        assert_eq!(p.unpersisted_line_count(), 2);
    }

    #[test]
    fn nt_write_persists_at_fence_without_flush() {
        let mut p = pool();
        let a = p.base() + 256;
        p.nt_write(a, &9u64.to_le_bytes()).unwrap();
        assert_eq!(p.line_state(a).unwrap(), LineState::Flushing);
        p.fence();
        assert!(p.is_persisted(a, 8));
        assert_eq!(p.read_u64(a).unwrap(), 9);
    }

    #[test]
    fn write_to_flushing_line_completes_pending_writeback() {
        let mut p = pool();
        let a = p.base();
        p.write_u64(a, 1).unwrap();
        p.flush_line(a).unwrap();
        // Store to the same line before the fence: the clwb'd data may have
        // already drained; our model persists it eagerly.
        p.write_u64(a, 2).unwrap();
        assert_eq!(p.line_state(a).unwrap(), LineState::Dirty);
        assert_eq!(
            u64::from_le_bytes(p.media_image().bytes()[0..8].try_into().unwrap()),
            1,
            "the first store's write-back completed"
        );
        assert_eq!(p.read_u64(a).unwrap(), 2, "volatile has the second store");
    }

    #[test]
    fn out_of_bounds_reads_and_writes_fail() {
        let mut p = pool();
        let end = p.base() + p.len();
        assert!(matches!(
            p.read_u64(end - 4),
            Err(PmError::OutOfBounds { .. })
        ));
        assert!(matches!(
            p.write_u64(end, 0),
            Err(PmError::OutOfBounds { .. })
        ));
        assert!(matches!(
            p.read_u64(p.base() - 8),
            Err(PmError::OutOfBounds { .. })
        ));
        let mut empty: [u8; 0] = [];
        assert!(matches!(
            p.read(p.base(), &mut empty),
            Err(PmError::ZeroSize { .. })
        ));
    }

    #[test]
    fn full_image_contains_unpersisted_data_media_image_does_not() {
        let mut p = pool();
        let a = p.base() + 512;
        p.write_u64(a, 77).unwrap();
        let full = p.full_image();
        let media = p.media_image();
        assert_eq!(
            u64::from_le_bytes(full.bytes()[512..520].try_into().unwrap()),
            77
        );
        assert_eq!(
            u64::from_le_bytes(media.bytes()[512..520].try_into().unwrap()),
            0
        );
    }

    #[test]
    fn from_image_round_trip_is_clean() {
        let mut p = pool();
        p.write_u64(p.base(), 5).unwrap();
        let img = p.full_image();
        let q = PmPool::from_image(&img);
        assert_eq!(q.read_u64(q.base()).unwrap(), 5);
        assert_eq!(q.unpersisted_line_count(), 0);
        assert!(q.is_persisted(q.base(), q.len()));
    }

    #[test]
    fn restore_checks_geometry() {
        let mut p = pool();
        let other = PmPool::new(8192).unwrap();
        let img = other.full_image();
        assert!(matches!(
            p.restore(&img),
            Err(PmError::ImageMismatch { .. })
        ));
        let ok = p.full_image();
        p.write_u64(p.base(), 9).unwrap();
        p.restore(&ok).unwrap();
        assert_eq!(p.read_u64(p.base()).unwrap(), 0);
        assert_eq!(p.unpersisted_line_count(), 0);
    }

    #[test]
    fn crash_image_with_selects_lines() {
        let mut p = pool();
        let a0 = p.base(); // line 0
        let a1 = p.base() + 64; // line 1
        p.write_u64(a0, 10).unwrap();
        p.write_u64(a1, 20).unwrap();
        let img = p.crash_image_with(|li| li == 1);
        assert_eq!(u64::from_le_bytes(img.bytes()[0..8].try_into().unwrap()), 0);
        assert_eq!(
            u64::from_le_bytes(img.bytes()[64..72].try_into().unwrap()),
            20
        );
    }

    #[test]
    fn image_file_round_trip() {
        let mut p = pool();
        p.write_u64(p.base() + 192, 0xfeed).unwrap();
        let img = p.full_image();
        let path = std::env::temp_dir().join(format!("pmem_pool_{}.img", std::process::id()));
        img.write_to_file(&path).unwrap();
        let back = PmImage::read_from_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, img);
        let q = PmPool::from_image(&back);
        assert_eq!(q.read_u64(q.base() + 192).unwrap(), 0xfeed);
    }

    #[test]
    fn image_file_rejects_garbage() {
        let path = std::env::temp_dir().join(format!("pmem_bad_{}.img", std::process::id()));
        std::fs::write(&path, b"definitely not a pool file").unwrap();
        let err = PmImage::read_from_file(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn cow_images_match_their_materializing_counterparts() {
        let mut p = pool();
        p.write_u64(p.base(), 10).unwrap();
        p.write_u64(p.base() + 64, 20).unwrap();
        p.flush_line(p.base() + 64).unwrap();
        p.fence();
        p.write_u64(p.base() + 128, 30).unwrap();
        assert_eq!(p.cow_full_image().materialize(), p.full_image());
        assert_eq!(p.cow_media_image().materialize(), p.media_image());
        assert_eq!(
            p.cow_crash_image_with(|li| li % 2 == 0).materialize(),
            p.crash_image_with(|li| li % 2 == 0)
        );
    }

    #[test]
    fn cow_crash_image_consults_keep_like_the_materializing_version() {
        let mut p = pool();
        p.write_u64(p.base(), 1).unwrap();
        p.write_u64(p.base() + 192, 2).unwrap();
        let mut asked_flat = Vec::new();
        let _ = p.crash_image_with(|li| {
            asked_flat.push(li);
            true
        });
        let mut asked_cow = Vec::new();
        let _ = p.cow_crash_image_with(|li| {
            asked_cow.push(li);
            true
        });
        assert_eq!(asked_flat, vec![0, 3]);
        assert_eq!(asked_cow, asked_flat, "same lines, same order");
    }

    #[test]
    fn from_cow_round_trip_is_clean_and_cheap() {
        let mut p = pool();
        p.write_u64(p.base() + 256, 5).unwrap();
        let img = p.cow_full_image();
        assert_eq!(img.delta_count(), 1);
        let q = PmPool::from_cow(&img);
        assert_eq!(q.read_u64(q.base() + 256).unwrap(), 5);
        assert_eq!(q.unpersisted_line_count(), 0);
        assert!(q.is_persisted(q.base(), q.len()));
        assert_eq!(
            q.snapshot_bytes_copied(),
            2 * CACHE_LINE,
            "one delta line into two overlays — not two pool copies"
        );
    }

    #[test]
    fn cow_snapshot_traffic_is_proportional_to_deltas_not_pool_size() {
        let mut p = pool();
        p.write_u64(p.base(), 1).unwrap();
        let before = p.snapshot_bytes_copied();
        let img = p.cow_full_image();
        let capture_cost = p.snapshot_bytes_copied() - before;
        assert_eq!(capture_cost, CACHE_LINE, "one dirty line captured");

        let mut q = pool();
        q.write_u64(q.base(), 1).unwrap();
        let before = q.snapshot_bytes_copied();
        let _flat = q.full_image();
        assert_eq!(
            q.snapshot_bytes_copied() - before,
            q.len(),
            "materialization copies the whole pool"
        );
        drop(img);
    }

    #[test]
    fn from_cow_allocates_only_the_pages_its_deltas_land_in() {
        let mut p = PmPool::new(4 << 20).unwrap();
        p.write_u64(p.base(), 1).unwrap();
        p.write_u64(p.base() + 64, 2).unwrap();
        p.write_u64(p.base() + (1 << 20), 3).unwrap();
        let q = PmPool::from_cow(&p.cow_full_image());
        assert_eq!(q.volatile.page_count(), 2);
        assert_eq!(q.media.page_count(), 2);
        assert_eq!(q.read_u64(q.base() + (1 << 20)).unwrap(), 3);
    }

    #[test]
    fn writes_after_from_cow_do_not_leak_into_the_image() {
        let mut p = pool();
        p.write_u64(p.base(), 7).unwrap();
        let img = p.cow_full_image();
        let mut q = PmPool::from_cow(&img);
        q.write_u64(q.base(), 99).unwrap();
        q.write_u64(q.base() + 512, 100).unwrap();
        assert_eq!(
            u64::from_le_bytes(img.materialize().bytes()[0..8].try_into().unwrap()),
            7,
            "the shared base is immutable; writes go to overlays"
        );
        assert_eq!(p.read_u64(p.base()).unwrap(), 7);
    }

    #[test]
    fn equal_pool_states_produce_equal_cow_hashes() {
        let mut p = pool();
        p.write_u64(p.base(), 1).unwrap();
        let a = p.cow_full_image();
        p.write_u64(p.base(), 1).unwrap(); // same value again
        let b = p.cow_full_image();
        assert_eq!(a.content_hash(), b.content_hash());
        assert!(a.same_content(&b));
        p.write_u64(p.base(), 2).unwrap();
        let c = p.cow_full_image();
        assert!(!a.same_content(&c));
    }

    #[test]
    fn restore_after_rebase_keeps_views_consistent() {
        let mut p = PmPool::new(256).unwrap(); // 4 lines: rebases quickly
        let snapshot = p.full_image();
        for i in 0..4 {
            p.write_u64(p.base() + i * 64, i + 1).unwrap(); // forces a rebase
        }
        p.restore(&snapshot).unwrap();
        assert_eq!(p.read_u64(p.base()).unwrap(), 0);
        assert_eq!(p.media_image(), p.full_image());
        assert_eq!(p.unpersisted_line_count(), 0);
    }

    #[test]
    fn contains_edge_cases() {
        let p = pool();
        assert!(p.contains(p.base(), 1));
        assert!(p.contains(p.base(), p.len()));
        assert!(!p.contains(p.base(), p.len() + 1));
        assert!(!p.contains(p.base() - 1, 1));
        assert!(!p.contains(p.base(), 0));
        assert!(!p.contains(u64::MAX, 2), "overflow must not wrap");
    }
}
