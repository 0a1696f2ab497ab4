//! Property-based tests of the copy-on-write snapshot subsystem: for
//! arbitrary operation sequences, a [`CowImage`] must materialize to
//! exactly the bytes the legacy materializing snapshot path produces, and
//! the content-identity machinery (`content_hash`/`same_content`) must
//! agree with byte equality.
//!
//! Every property runs on two geometries: a 64-line pool, which fits in
//! one overlay page, and a pool of three full pages plus a partial fourth,
//! so page edges, the partial last page and overlay rebases are covered.

use proptest::prelude::*;

use pmem::{CowImage, PmPool, CACHE_LINE};

/// Bytes per overlay page (64 lines).
const PAGE: u64 = 64 * CACHE_LINE;
/// One page: 64 lines.
const SMALL: u64 = 64 * CACHE_LINE;
/// Three full pages plus 17 lines of a fourth.
const PAGED: u64 = 3 * PAGE + 17 * CACHE_LINE;
const GEOMETRIES: [u64; 2] = [SMALL, PAGED];

#[derive(Debug, Clone)]
enum Step {
    Write {
        off: u64,
        val: u64,
    },
    NtWrite {
        off: u64,
        val: u64,
    },
    /// `len` bytes of `byte` at an unaligned offset near a page edge.
    Span {
        off: u64,
        len: u64,
        byte: u8,
    },
    Flush {
        off: u64,
    },
    Fence,
    /// Flushes and fences every line: the media view takes every
    /// volatile line (whole-line copies), and rebases once they cover
    /// more than half of it.
    PersistAll,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let off = 0..(PAGED / 8);
    // Offsets within 100 bytes of one of the page edges.
    let near_edge =
        (0..4u64, 0..200u64).prop_map(|(page, d)| (page * PAGE + d).saturating_sub(100));
    prop_oneof![
        (off.clone(), any::<u64>()).prop_map(|(o, v)| Step::Write { off: o * 8, val: v }),
        (off.clone(), any::<u64>()).prop_map(|(o, v)| Step::NtWrite { off: o * 8, val: v }),
        (near_edge, 1..300u64, any::<u8>()).prop_map(|(off, len, byte)| Step::Span {
            off,
            len,
            byte
        }),
        off.prop_map(|o| Step::Flush { off: o * 8 }),
        Just(Step::Fence),
        Just(Step::PersistAll),
    ]
}

/// Applies `steps` to `pool`, wrapping offsets into the pool and clipping
/// spans at its end, so one step list drives every geometry.
fn apply(pool: &mut PmPool, steps: &[Step]) {
    let (base, len) = (pool.base(), pool.len());
    for s in steps {
        match *s {
            Step::Write { off, val } => pool.write(base + off % len, &val.to_le_bytes()).unwrap(),
            Step::NtWrite { off, val } => {
                pool.nt_write(base + off % len, &val.to_le_bytes()).unwrap()
            }
            Step::Span { off, len: n, byte } => {
                let off = off % len;
                let n = n.min(len - off) as usize;
                pool.write(base + off, &vec![byte; n]).unwrap();
            }
            Step::Flush { off } => {
                let _ = pool.flush_line(base + off % len).unwrap();
            }
            Step::Fence => pool.fence(),
            Step::PersistAll => {
                for line in (0..len).step_by(CACHE_LINE as usize) {
                    let _ = pool.flush_line(base + line).unwrap();
                }
                pool.fence();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The COW forms of all three snapshot kinds materialize to exactly
    /// the bytes of their legacy counterparts.
    #[test]
    fn cow_images_materialize_to_the_legacy_bytes(
        steps in prop::collection::vec(step_strategy(), 0..200),
        keeps in prop::collection::vec(any::<bool>(), (PAGED / CACHE_LINE) as usize),
    ) {
        for size in GEOMETRIES {
            let mut pool = PmPool::new(size).unwrap();
            apply(&mut pool, &steps);
            prop_assert_eq!(pool.cow_full_image().materialize(), pool.full_image());
            prop_assert_eq!(pool.cow_media_image().materialize(), pool.media_image());
            let flat = pool.crash_image_with(|li| keeps[li]);
            let cow = pool.cow_crash_image_with(|li| keeps[li]);
            prop_assert_eq!(cow.materialize(), flat);
        }
    }

    /// Forking a pool from a COW image reproduces the image bytes exactly
    /// (the post-failure pool sees the same crash state either way), with
    /// everything clean; and the fork's own writes, rebases included, stay
    /// out of the image.
    #[test]
    fn from_cow_reproduces_the_image(
        steps in prop::collection::vec(step_strategy(), 0..200),
        after in prop::collection::vec(step_strategy(), 0..100),
    ) {
        for size in GEOMETRIES {
            let mut pool = PmPool::new(size).unwrap();
            apply(&mut pool, &steps);
            let cow = pool.cow_full_image();
            let mut forked = PmPool::from_cow(&cow);
            prop_assert_eq!(forked.full_image(), pool.full_image());
            prop_assert_eq!(forked.media_image(), pool.full_image());
            prop_assert_eq!(forked.unpersisted_line_count(), 0);
            let recaptured = forked.cow_full_image();
            prop_assert!(recaptured.same_content(&cow), "round trip keeps the deltas");
            prop_assert_eq!(recaptured.content_hash(), cow.content_hash());
            apply(&mut forked, &after);
            prop_assert_eq!(cow.materialize(), pool.full_image());
        }
    }

    /// `same_content` (the exact dedup check) agrees with byte equality
    /// for images captured from the same pool lineage, and equal content
    /// implies equal hashes.
    #[test]
    fn content_identity_agrees_with_byte_equality(
        steps_a in prop::collection::vec(step_strategy(), 0..80),
        steps_b in prop::collection::vec(step_strategy(), 0..80),
    ) {
        for size in GEOMETRIES {
            let mut pool = PmPool::new(size).unwrap();
            apply(&mut pool, &steps_a);
            let a: CowImage = pool.cow_full_image();
            apply(&mut pool, &steps_b);
            let b = pool.cow_full_image();
            let bytes_equal = a.materialize() == b.materialize();
            // Same lineage unless a rebase happened in between; compare
            // via the generation.
            if a.generation() == b.generation() {
                prop_assert_eq!(a.same_content(&b), bytes_equal);
            } else {
                // Conservative across rebases: never a false positive.
                prop_assert!(!a.same_content(&b));
            }
            if a.same_content(&b) {
                prop_assert_eq!(a.content_hash(), b.content_hash());
                prop_assert_eq!(a.delta_count(), b.delta_count());
            }
        }
    }

    /// Snapshot byte accounting: capturing a COW image costs exactly
    /// 64 bytes per delta line, while the legacy snapshot always costs the
    /// full pool size.
    #[test]
    fn cow_capture_cost_is_delta_proportional(
        steps in prop::collection::vec(step_strategy(), 0..200),
    ) {
        for size in GEOMETRIES {
            let mut pool = PmPool::new(size).unwrap();
            apply(&mut pool, &steps);
            let before = pool.snapshot_bytes_copied();
            let cow = pool.cow_full_image();
            let cow_cost = pool.snapshot_bytes_copied() - before;
            prop_assert_eq!(cow_cost, cow.delta_count() as u64 * CACHE_LINE);
            let before = pool.snapshot_bytes_copied();
            let _flat = pool.full_image();
            prop_assert_eq!(pool.snapshot_bytes_copied() - before, size);
        }
    }
}

/// The step mix must actually reach what the properties claim to cover:
/// spans across a page edge and rebases of both views.
#[test]
fn the_step_mix_straddles_page_edges_and_rebases() {
    let mut pool = PmPool::new(PAGED).unwrap();
    let generation = pool.cow_full_image().generation();
    apply(
        &mut pool,
        &[Step::Span {
            off: PAGE - 10,
            len: 20,
            byte: 1,
        }],
    );
    let img = pool.cow_full_image();
    assert_eq!(img.delta_count(), 2, "one line on each side of the edge");
    apply(
        &mut pool,
        &[
            Step::Span {
                off: 0,
                len: PAGED,
                byte: 2,
            },
            Step::PersistAll,
        ],
    );
    assert_ne!(
        pool.cow_full_image().generation(),
        generation,
        "volatile rebased"
    );
    assert_ne!(
        pool.cow_media_image().generation(),
        generation,
        "media rebased"
    );
    assert_eq!(pool.cow_media_image().materialize(), pool.full_image());
}
