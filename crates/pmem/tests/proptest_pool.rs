//! Property-based tests of the PM pool's persistence model: for arbitrary
//! operation sequences, the volatile/media/line-state views must stay
//! mutually consistent and the crash-image policies must bracket reality.

use proptest::prelude::*;

use pmem::{CrashPolicy, LineState, PmPool, CACHE_LINE};

const POOL: u64 = 64 * 64; // 64 lines

/// One step of an arbitrary PM workload.
#[derive(Debug, Clone)]
enum Step {
    Write { off: u64, val: u64 },
    NtWrite { off: u64, val: u64 },
    Flush { off: u64 },
    Fence,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let off = 0..(POOL / 8);
    prop_oneof![
        (off.clone(), any::<u64>()).prop_map(|(o, v)| Step::Write { off: o * 8, val: v }),
        (off.clone(), any::<u64>()).prop_map(|(o, v)| Step::NtWrite { off: o * 8, val: v }),
        off.prop_map(|o| Step::Flush { off: o * 8 }),
        Just(Step::Fence),
    ]
}

fn apply(pool: &mut PmPool, steps: &[Step]) {
    let base = pool.base();
    for s in steps {
        match *s {
            Step::Write { off, val } => pool.write(base + off, &val.to_le_bytes()).unwrap(),
            Step::NtWrite { off, val } => pool.nt_write(base + off, &val.to_le_bytes()).unwrap(),
            Step::Flush { off } => {
                let _ = pool.flush_line(base + off).unwrap();
            }
            Step::Fence => pool.fence(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Clean lines always have media == volatile; is_persisted agrees with
    /// the line states.
    #[test]
    fn clean_lines_mean_media_equals_volatile(steps in prop::collection::vec(step_strategy(), 0..200)) {
        let mut pool = PmPool::new(POOL).unwrap();
        apply(&mut pool, &steps);
        let base = pool.base();
        let full = pool.full_image();
        let media = pool.media_image();
        for li in 0..(POOL / CACHE_LINE) {
            let addr = base + li * CACHE_LINE;
            let lo = (li * CACHE_LINE) as usize;
            let hi = lo + CACHE_LINE as usize;
            let state = pool.line_state(addr).unwrap();
            if state == LineState::Clean {
                prop_assert_eq!(&full.bytes()[lo..hi], &media.bytes()[lo..hi],
                    "clean line {} differs between cache and media", li);
                prop_assert!(pool.is_persisted(addr, CACHE_LINE));
            } else {
                prop_assert!(!pool.is_persisted(addr, CACHE_LINE));
            }
        }
    }

    /// After flushing every line and fencing, everything is persistent and
    /// media equals the volatile view exactly.
    #[test]
    fn global_flush_fence_persists_everything(steps in prop::collection::vec(step_strategy(), 0..200)) {
        let mut pool = PmPool::new(POOL).unwrap();
        apply(&mut pool, &steps);
        let base = pool.base();
        for li in 0..(POOL / CACHE_LINE) {
            let _ = pool.flush_line(base + li * CACHE_LINE).unwrap();
        }
        pool.fence();
        prop_assert!(pool.is_persisted(base, POOL));
        prop_assert_eq!(pool.full_image(), pool.media_image());
        prop_assert_eq!(pool.unpersisted_line_count(), 0);
    }

    /// Fence is idempotent: a second fence changes nothing.
    #[test]
    fn fence_is_idempotent(steps in prop::collection::vec(step_strategy(), 0..150)) {
        let mut pool = PmPool::new(POOL).unwrap();
        apply(&mut pool, &steps);
        pool.fence();
        let full1 = pool.full_image();
        let media1 = pool.media_image();
        let unp1 = pool.unpersisted_line_count();
        pool.fence();
        prop_assert_eq!(full1, pool.full_image());
        prop_assert_eq!(media1, pool.media_image());
        prop_assert_eq!(unp1, pool.unpersisted_line_count());
    }

    /// The crash-image policies bracket every possible crash state:
    /// FullImage == volatile, NoEviction == media, and every randomized
    /// image lies byte-wise in { media[i], volatile[i] }.
    #[test]
    fn crash_policies_bracket_reality(
        steps in prop::collection::vec(step_strategy(), 0..150),
        seed in any::<u64>(),
        prob in 0.0f64..=1.0,
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut pool = PmPool::new(POOL).unwrap();
        apply(&mut pool, &steps);
        let mut rng = StdRng::seed_from_u64(seed);
        let full = CrashPolicy::FullImage.image(&pool, &mut rng);
        let none = CrashPolicy::NoEviction.image(&pool, &mut rng);
        let some = CrashPolicy::RandomEviction { survive_prob: prob }.image(&pool, &mut rng);
        prop_assert_eq!(&full, &pool.full_image());
        prop_assert_eq!(&none, &pool.media_image());
        for li in 0..(POOL / CACHE_LINE) as usize {
            let lo = li * CACHE_LINE as usize;
            let hi = lo + CACHE_LINE as usize;
            let line = &some.bytes()[lo..hi];
            prop_assert!(
                line == &full.bytes()[lo..hi] || line == &none.bytes()[lo..hi],
                "sampled line {} is neither the volatile nor the media version", li
            );
        }
    }

    /// A pool rebuilt from the copy-on-write full image (the path the
    /// engine forks post-failure pools through) reproduces the volatile
    /// view and is fully persistent, however the source pool moves on.
    #[test]
    fn restore_round_trip(steps in prop::collection::vec(step_strategy(), 0..150)) {
        let mut pool = PmPool::new(POOL).unwrap();
        apply(&mut pool, &steps);
        let expected = pool.full_image();
        let snapshot = pool.cow_full_image();
        // Keep mutating the source, then rebuild from the snapshot.
        pool.write(pool.base(), &[0xAB; 64]).unwrap();
        let restored = PmPool::from_cow(&snapshot);
        prop_assert_eq!(restored.full_image(), expected.clone());
        prop_assert_eq!(restored.media_image(), expected);
        prop_assert_eq!(restored.unpersisted_line_count(), 0);
    }

    /// Reads always return the latest write to each location (the volatile
    /// view is a plain memory).
    #[test]
    fn reads_see_latest_writes(
        writes in prop::collection::vec((0..(POOL / 8), any::<u64>()), 1..100)
    ) {
        let mut pool = PmPool::new(POOL).unwrap();
        let base = pool.base();
        let mut model = std::collections::HashMap::new();
        for &(slot, val) in &writes {
            pool.write_u64(base + slot * 8, val).unwrap();
            model.insert(slot, val);
        }
        for (&slot, &val) in &model {
            prop_assert_eq!(pool.read_u64(base + slot * 8).unwrap(), val);
        }
    }
}
