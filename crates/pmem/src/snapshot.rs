//! Copy-on-write snapshot machinery: shared base images plus sparse
//! per-line overlays and deltas.
//!
//! The paper's frontend copies the whole PM pool file at every failure
//! point (Figure 8, step ③), so snapshot memory traffic scales as
//! `pool_size × failure_points` — the dominant cost in the Figure 12-style
//! breakdown once the §5.4 optimizations are in place. This module removes
//! the full copies:
//!
//! - [`LineBuf`] backs each pool view (volatile and media) with a shared,
//!   immutable base image ([`Arc<[u8]>`]) plus a sparse overlay of 64-byte
//!   cache lines that have been written since the base was established.
//!   Stores fault individual lines into the overlay; everything untouched
//!   stays shared. The overlay is paged (64 lines per page, pages
//!   allocated on first fault), so walking it costs O(lines touched), not
//!   O(lines in the pool).
//! - [`CowImage`] is a crash snapshot represented as `{base Arc + sorted
//!   line deltas}`. Capturing one copies only the lines that differ from
//!   the base, and forking a post-failure pool from one
//!   ([`crate::PmPool::from_cow`]) shares the base again instead of cloning
//!   the pool twice.
//! - [`ImageHash`] is a word hash over `(generation, deltas)`, letting
//!   the detection engine recognize crash images it has already explored
//!   and skip the redundant post-failure execution (image deduplication).
//!
//! Every base `Arc` carries a process-unique **generation** number. Within
//! one generation the delta list is canonical (only lines whose bytes
//! differ from the base are recorded, sorted by line index), so two
//! [`CowImage`]s with equal generation and equal deltas hold exactly equal
//! bytes — that is what makes the cheap [`CowImage::same_content`] check
//! sound.

// The snapshot layer is the new trusted hot path: panicking on a logic
// error here would take down a detection run, so `unwrap`/`expect` are
// denied outside tests (errors must be handled or designed out).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::{PmImage, CACHE_LINE};

const LINE: usize = CACHE_LINE as usize;

/// Process-wide generation counter: every fresh base `Arc` gets a unique
/// generation, so `(generation, deltas)` identifies image contents.
static GENERATION: AtomicU64 = AtomicU64::new(1);

fn next_generation() -> u64 {
    GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// Lines per overlay page (64 lines, 4 KiB): one presence bit each in
/// [`Page::present`].
const PAGE_LINES: usize = 64;

/// One page of a [`LineBuf`] overlay: room for [`PAGE_LINES`] lines, of
/// which those with their `present` bit set have been faulted in. The
/// other slots are unused (zero) and never read.
#[derive(Debug, Clone)]
struct Page {
    present: u64,
    lines: [[u8; LINE]; PAGE_LINES],
}

impl Page {
    fn new() -> Box<Page> {
        Box::new(Page {
            present: 0,
            lines: [[0; LINE]; PAGE_LINES],
        })
    }

    /// The faulted slots, ascending.
    fn slots(&self) -> impl Iterator<Item = usize> {
        let mut mask = self.present;
        std::iter::from_fn(move || {
            (mask != 0).then(|| {
                let slot = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                slot
            })
        })
    }
}

/// A pool view backed by a shared base image plus a sparse overlay of
/// written cache lines.
///
/// The overlay is paged: a page table with one entry per [`PAGE_LINES`]
/// lines of the pool, each entry allocated on the first fault in its
/// page. Walking the allocated pages in table order yields the faulted
/// lines sorted by index, so capture, flattening and forking cost
/// O(lines touched) rather than O(lines in the pool).
#[derive(Debug, Clone)]
pub(crate) struct LineBuf {
    base: Arc<[u8]>,
    generation: u64,
    pages: Vec<Option<Box<Page>>>,
    overlay_count: usize,
}

impl LineBuf {
    /// A view over `base`; the caller supplies the generation so that two
    /// views sharing one `Arc` (volatile + media of a fresh pool) also
    /// share the generation.
    pub(crate) fn from_base(base: Arc<[u8]>, generation: u64) -> Self {
        let pages = (base.len() / LINE).div_ceil(PAGE_LINES);
        LineBuf {
            base,
            generation,
            pages: vec![None; pages],
            overlay_count: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.base.len()
    }

    fn line_count(&self) -> usize {
        self.base.len() / LINE
    }

    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    pub(crate) fn base_arc(&self) -> &Arc<[u8]> {
        &self.base
    }

    /// The overlay copy of line `li`, if it has been faulted in.
    fn overlay_line(&self, li: usize) -> Option<&[u8; LINE]> {
        let page = self.pages[li / PAGE_LINES].as_deref()?;
        let slot = li % PAGE_LINES;
        (page.present >> slot & 1 != 0).then(|| &page.lines[slot])
    }

    pub(crate) fn overlay_is_none(&self, li: usize) -> bool {
        self.overlay_line(li).is_none()
    }

    /// Every faulted line with its index, ascending.
    fn overlay_lines(&self) -> impl Iterator<Item = (usize, &[u8; LINE])> {
        self.pages.iter().enumerate().flat_map(|(pi, page)| {
            page.iter().flat_map(move |page| {
                page.slots()
                    .map(move |slot| (pi * PAGE_LINES + slot, &page.lines[slot]))
            })
        })
    }

    fn base_line(&self, li: usize) -> &[u8] {
        &self.base[li * LINE..(li + 1) * LINE]
    }

    /// The effective 64 bytes of line `li` (overlay if faulted, else base).
    pub(crate) fn line(&self, li: usize) -> &[u8] {
        match self.overlay_line(li) {
            Some(line) => &line[..],
            None => self.base_line(li),
        }
    }

    /// The overlay slot of line `li`, faulted in from the base on first
    /// touch; with the bytes the fault copied (0 if already present).
    fn fault(&mut self, li: usize) -> (&mut [u8; LINE], u64) {
        let (slot, bit) = (li % PAGE_LINES, 1u64 << (li % PAGE_LINES));
        let page = self.pages[li / PAGE_LINES].get_or_insert_with(Page::new);
        let present = page.present & bit != 0;
        page.present |= bit;
        let line = &mut page.lines[slot];
        if present {
            return (line, 0);
        }
        line.copy_from_slice(&self.base[li * LINE..(li + 1) * LINE]);
        self.overlay_count += 1;
        (line, CACHE_LINE)
    }

    /// Copies `buf.len()` bytes starting at byte offset `off` into `buf`.
    pub(crate) fn read_into(&self, off: usize, buf: &mut [u8]) {
        let mut pos = 0;
        while pos < buf.len() {
            let abs = off + pos;
            let (li, lo) = (abs / LINE, abs % LINE);
            let n = (LINE - lo).min(buf.len() - pos);
            buf[pos..pos + n].copy_from_slice(&self.line(li)[lo..lo + n]);
            pos += n;
        }
    }

    /// Writes `data` at byte offset `off`, faulting covered lines into the
    /// overlay. Returns the bytes copied by the faults.
    pub(crate) fn write_at(&mut self, off: usize, data: &[u8]) -> u64 {
        let mut faulted = 0;
        let mut pos = 0;
        while pos < data.len() {
            let abs = off + pos;
            let (li, lo) = (abs / LINE, abs % LINE);
            let n = (LINE - lo).min(data.len() - pos);
            let (line, copied) = self.fault(li);
            line[lo..lo + n].copy_from_slice(&data[pos..pos + n]);
            faulted += copied;
            pos += n;
        }
        faulted
    }

    /// Overwrites the full line `li` with `src` (no base fault needed: the
    /// line is completely replaced).
    pub(crate) fn set_line(&mut self, li: usize, src: &[u8; LINE]) {
        let (slot, bit) = (li % PAGE_LINES, 1u64 << (li % PAGE_LINES));
        let page = self.pages[li / PAGE_LINES].get_or_insert_with(Page::new);
        if page.present & bit == 0 {
            page.present |= bit;
            self.overlay_count += 1;
        }
        page.lines[slot] = *src;
    }

    /// Flattens overlay + base into a fresh `Vec` (a full materialization).
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut bytes = self.base.to_vec();
        for (li, line) in self.overlay_lines() {
            bytes[li * LINE..(li + 1) * LINE].copy_from_slice(line);
        }
        bytes
    }

    /// When the overlay covers more than half the pool the sharing has
    /// stopped paying for itself: flatten into a fresh base `Arc` (new
    /// generation) and drop the overlay. Returns the bytes copied (0 when
    /// no rebase happened).
    pub(crate) fn maybe_rebase(&mut self) -> u64 {
        if self.overlay_count * 2 <= self.line_count() {
            return 0;
        }
        self.base = Arc::from(self.to_bytes());
        self.generation = next_generation();
        self.pages.fill(None);
        self.overlay_count = 0;
        self.base.len() as u64
    }

    /// The canonical delta list of this view against its own base: one
    /// entry per line whose effective bytes differ from the base bytes,
    /// sorted by line index.
    fn deltas(&self) -> Vec<(u32, [u8; LINE])> {
        self.overlay_lines()
            .filter(|(li, line)| line[..] != *self.base_line(*li))
            .map(|(li, line)| (li as u32, *line))
            .collect()
    }

    /// Overlay pages allocated so far.
    #[cfg(test)]
    pub(crate) fn page_count(&self) -> usize {
        self.pages.iter().flatten().count()
    }

    /// Captures this view as a [`CowImage`] at `base_addr`. Returns the
    /// image and the bytes copied into its delta list.
    pub(crate) fn capture(&self, base_addr: u64) -> (CowImage, u64) {
        let deltas = self.deltas();
        let copied = (deltas.len() as u64) * CACHE_LINE;
        (
            CowImage {
                base_addr,
                generation: self.generation,
                base: Arc::clone(&self.base),
                deltas: deltas.into(),
            },
            copied,
        )
    }
}

/// A crash snapshot in copy-on-write form: a shared base image plus the
/// sorted list of 64-byte lines that differ from it.
///
/// Cheap to clone and [`Send`]/[`Sync`] (the parallel engine ships these to
/// worker threads instead of full pool copies). [`CowImage::materialize`]
/// converts to the flat [`PmImage`] representation when the full bytes are
/// needed (file round-trips, differential tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CowImage {
    base_addr: u64,
    generation: u64,
    base: Arc<[u8]>,
    deltas: Arc<[(u32, [u8; LINE])]>,
}

impl CowImage {
    /// Assembles an image from a base view and a canonical (sorted, only
    /// lines differing from the base) delta list. The caller guarantees
    /// canonicality; [`CowImage::same_content`] relies on it.
    pub(crate) fn from_base_and_deltas(
        base_addr: u64,
        generation: u64,
        base: Arc<[u8]>,
        deltas: Vec<(u32, [u8; LINE])>,
    ) -> Self {
        CowImage {
            base_addr,
            generation,
            base,
            deltas: deltas.into(),
        }
    }

    /// Base address the image was captured at.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base_addr
    }

    /// Length of the image in bytes.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.base.len() as u64
    }

    /// Whether the image is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// Number of cache lines recorded as differing from the base image.
    #[must_use]
    pub fn delta_count(&self) -> usize {
        self.deltas.len()
    }

    /// Generation of the base `Arc` this image references.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    pub(crate) fn base_bytes(&self) -> &Arc<[u8]> {
        &self.base
    }

    pub(crate) fn delta_lines(&self) -> &[(u32, [u8; LINE])] {
        &self.deltas
    }

    /// The effective bytes of line `li`.
    #[must_use]
    pub fn line(&self, li: u32) -> &[u8] {
        match self.deltas.binary_search_by_key(&li, |(i, _)| *i) {
            Ok(pos) => &self.deltas[pos].1[..],
            Err(_) => {
                let start = li as usize * LINE;
                &self.base[start..start + LINE]
            }
        }
    }

    /// Flattens the image into the legacy [`PmImage`] representation
    /// (a full copy — the escape hatch for file round-trips and any
    /// consumer of the flat byte API).
    #[must_use]
    pub fn materialize(&self) -> PmImage {
        let mut bytes = self.base.to_vec();
        for (li, line) in self.deltas.iter() {
            let start = *li as usize * LINE;
            bytes[start..start + LINE].copy_from_slice(&line[..]);
        }
        PmImage::from_parts(self.base_addr, bytes)
    }

    /// Content hash over `(base address, generation, deltas)`.
    ///
    /// Two images with equal hashes are *candidates* for being identical;
    /// [`CowImage::same_content`] gives the exact answer. The hash is
    /// conservative across generations: equal bytes reachable from
    /// different base `Arc`s hash differently, which can only cost a
    /// missed deduplication, never a wrong one.
    ///
    /// An in-memory key only: generations are numbered per process, so
    /// the hash means nothing outside it and is never persisted. That is
    /// why a fast, unkeyed word hash suffices.
    #[must_use]
    pub fn content_hash(&self) -> ImageHash {
        // Two independent lanes of folded multiplies over the same u64
        // words: 128 bits for a hash-map key, with `same_content` as the
        // exact confirmation. The lanes share no state, so they run in
        // parallel on the CPU.
        const MUL: [u64; 2] = [0x9e37_79b9_7f4a_7c15, 0xd6e8_feb8_6659_fd93];
        let mut h = [0x243f_6a88_85a3_08d3_u64, 0x1319_8a2e_0370_7344];
        let mut feed = |word: u64| {
            for (x, mul) in h.iter_mut().zip(MUL) {
                let product = u128::from(*x ^ word) * u128::from(mul);
                *x = product as u64 ^ (product >> 64) as u64;
            }
        };
        feed(self.base_addr);
        feed(self.generation);
        feed(self.deltas.len() as u64);
        for (li, line) in self.deltas.iter() {
            feed(u64::from(*li));
            for chunk in line.chunks_exact(8) {
                let mut word = [0u8; 8];
                word.copy_from_slice(chunk);
                feed(u64::from_le_bytes(word));
            }
        }
        ImageHash(h)
    }

    /// Exact content equality, in O(deltas) instead of O(pool size).
    ///
    /// Sound because the delta list is canonical within a generation: same
    /// generation ⇒ same base `Arc`, and only lines that differ from the
    /// base are recorded (sorted), so equal deltas ⇔ equal bytes.
    #[must_use]
    pub fn same_content(&self, other: &CowImage) -> bool {
        self.base_addr == other.base_addr
            && self.generation == other.generation
            && self.deltas == other.deltas
    }
}

/// A 128-bit content hash of a [`CowImage`], usable as a hash-map key for
/// crash-image deduplication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ImageHash([u64; 2]);

/// Creates the shared zeroed/initialized base for a fresh pool: one `Arc`
/// plus the generation both views will share.
pub(crate) fn fresh_base(bytes: Vec<u8>) -> (Arc<[u8]>, u64) {
    (Arc::from(bytes), next_generation())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn buf(len: usize) -> LineBuf {
        let (base, generation) = fresh_base(vec![0; len]);
        LineBuf::from_base(base, generation)
    }

    #[test]
    fn reads_fall_through_to_base_until_written() {
        let (base, generation) = fresh_base((0..=255).cycle().take(256).collect());
        let b = LineBuf::from_base(base, generation);
        let mut out = [0u8; 8];
        b.read_into(100, &mut out);
        assert_eq!(out, [100, 101, 102, 103, 104, 105, 106, 107]);
        assert_eq!(b.overlay_count, 0);
    }

    #[test]
    fn writes_fault_lines_once_and_count_bytes() {
        let mut b = buf(256);
        assert_eq!(b.write_at(0, &[1, 2, 3]), 64, "first touch faults");
        assert_eq!(b.write_at(10, &[9]), 0, "same line already faulted");
        assert_eq!(b.write_at(60, &[7; 8]), 64, "spans into line 1");
        let mut out = [0u8; 3];
        b.read_into(0, &mut out);
        assert_eq!(out, [1, 2, 3]);
        let mut out = [0u8; 8];
        b.read_into(60, &mut out);
        assert_eq!(out, [7; 8]);
        assert_eq!(b.overlay_count, 2);
    }

    #[test]
    fn capture_records_only_lines_that_differ() {
        let mut b = buf(256);
        b.write_at(64, &[5]);
        b.write_at(128, &[0]); // faulted, but identical to base
        let (img, copied) = b.capture(0);
        assert_eq!(img.delta_count(), 1, "canonical: unchanged line dropped");
        assert_eq!(copied, 64);
        assert_eq!(img.line(1)[0], 5);
        assert_eq!(img.line(2)[0], 0);
    }

    #[test]
    fn materialize_equals_to_bytes() {
        let mut b = buf(512);
        b.write_at(3, &[1, 2, 3, 4]);
        b.write_at(200, &[9; 64]);
        let (img, _) = b.capture(0);
        assert_eq!(img.materialize().bytes(), &b.to_bytes()[..]);
    }

    #[test]
    fn equal_content_hashes_and_compares_equal() {
        let mut a = buf(256);
        let mut b = a.clone(); // shares base + generation
        a.write_at(0, &[42]);
        b.write_at(0, &[42]);
        let (ia, _) = a.capture(0);
        let (ib, _) = b.capture(0);
        assert_eq!(ia.content_hash(), ib.content_hash());
        assert!(ia.same_content(&ib));
    }

    #[test]
    fn different_content_differs() {
        let mut a = buf(256);
        let mut b = a.clone();
        a.write_at(0, &[1]);
        b.write_at(0, &[2]);
        let (ia, _) = a.capture(0);
        let (ib, _) = b.capture(0);
        assert_ne!(ia.content_hash(), ib.content_hash());
        assert!(!ia.same_content(&ib));
    }

    #[test]
    fn generations_keep_distinct_bases_apart() {
        let a = buf(256);
        let b = buf(256); // same (zero) contents, fresh base
        let (ia, _) = a.capture(0);
        let (ib, _) = b.capture(0);
        assert_ne!(ia.content_hash(), ib.content_hash(), "conservative");
        assert!(!ia.same_content(&ib));
    }

    #[test]
    fn rebase_flattens_and_changes_generation() {
        let mut b = buf(256); // 4 lines
        let g0 = b.generation();
        b.write_at(0, &[1]);
        b.write_at(64, &[2]);
        assert_eq!(b.maybe_rebase(), 0, "half the lines: not yet");
        b.write_at(128, &[3]);
        assert_eq!(b.maybe_rebase(), 256, "3 of 4 lines faulted");
        assert_ne!(b.generation(), g0);
        assert_eq!(b.overlay_count, 0);
        let mut out = [0u8; 1];
        b.read_into(128, &mut out);
        assert_eq!(out, [3], "contents preserved across rebase");
    }

    #[test]
    fn faulting_k_lines_holds_at_most_k_pages() {
        let mut b = buf(4 << 20);
        assert_eq!(b.pages.len(), 1024, "64 lines per page");
        assert_eq!(b.page_count(), 0, "nothing allocated up front");
        // Scattered: lines far apart fault one page each at most.
        for k in 1..=300 {
            let li = (k * 211) % b.line_count();
            b.write_at(li * LINE + 3, &[1]);
            assert!(b.page_count() <= k, "{k} lines, {} pages", b.page_count());
        }
        // Clustered: 300 adjacent lines share 5 or 6 pages.
        let mut b = buf(4 << 20);
        for li in 1024..1324 {
            b.set_line(li, &[2; LINE]);
        }
        assert_eq!(b.page_count(), 300usize.div_ceil(PAGE_LINES));
        let (img, _) = b.capture(0);
        assert_eq!(img.delta_count(), 300);
        assert!(img.delta_lines().windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn writes_straddling_a_page_edge_fault_both_pages() {
        let mut b = buf(3 * PAGE_LINES * LINE + 5 * LINE); // partial last page
        let edge = PAGE_LINES * LINE;
        assert_eq!(b.write_at(edge - 4, &[7; 8]), 2 * CACHE_LINE);
        assert_eq!(b.page_count(), 2);
        let last = b.line_count() - 1;
        b.set_line(last, &[9; LINE]);
        assert_eq!(b.page_count(), 3);
        let (img, copied) = b.capture(0);
        assert_eq!(copied, 3 * CACHE_LINE);
        let lines: Vec<u32> = img.delta_lines().iter().map(|(li, _)| *li).collect();
        assert_eq!(
            lines,
            vec![PAGE_LINES as u32 - 1, PAGE_LINES as u32, last as u32]
        );
        assert_eq!(img.materialize().bytes(), &b.to_bytes()[..]);
    }

    #[test]
    fn rebase_drops_every_page() {
        let mut b = buf(2 * PAGE_LINES * LINE);
        for li in 0..=PAGE_LINES {
            b.write_at(li * LINE, &[1]);
        }
        assert_eq!(b.page_count(), 2);
        assert_eq!(b.maybe_rebase(), b.len() as u64);
        assert_eq!(b.page_count(), 0);
        assert_eq!(b.line(PAGE_LINES)[0], 1, "contents kept in the new base");
    }

    #[test]
    fn set_line_replaces_without_reading_base() {
        let mut b = buf(128);
        b.set_line(1, &[8; LINE]);
        assert_eq!(b.line(1), &[8; LINE]);
        assert_eq!(b.overlay_count, 1);
    }
}
