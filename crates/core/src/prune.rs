//! Guided failure-point pruning via persistence-state equivalence classes.
//!
//! Exhaustive failure-point exploration runs one post-failure execution per
//! ordering point, so campaigns scale linearly with trace length. WITCHER's
//! observation (carried over to this detector) is that failure points whose
//! exposed persistence state is equivalent produce equivalent crash images:
//! one *representative* execution per equivalence class suffices, and its
//! recorded post-failure trace can be replayed — checked — against every
//! other member's own shadow checkpoint, exactly the way the image-dedup
//! cache already replays byte-identical crash images.
//!
//! The class key is [`ShadowPm::persistence_fingerprint`]: an FNV-1a hash
//! over the sorted, deduplicated per-byte records of every byte that could
//! *contribute to a post-failure finding* — bytes whose state/flag
//! combination mirrors exactly what `check_read` consults (unpersisted or
//! in-flight data, unprotected transactional writes, uninitialized reads,
//! unpersisted commit variables), each record hashing the byte's flags and
//! writer source location. All three engines compute the fingerprint from
//! the identical replayed entry stream, so their pruning decisions — and
//! therefore their merged reports — stay in lockstep.
//!
//! The shadow keeps each suspect line's distinct records and a counted
//! record set up to date as it replays, so keying a failure point costs
//! O(distinct records), not a rescan of every suspect byte. The planner
//! times each key into [`RunStats::fingerprint_time`].
//!
//! [`RunStats::fingerprint_time`]: crate::RunStats::fingerprint_time
//!
//! Because members are still *checked* (only the redundant execution and
//! image capture are skipped), recorded runs contain a full post trace per
//! failure point and the offline replayer, the fuzz oracle and the
//! post-trace store all work unchanged on pruned runs. Report byte-identity against
//! exhaustive mode is additionally enforced end-to-end by the
//! `prune-equivalence` CI job and the cross-mode equivalence tests.
//!
//! [`ShadowPm::persistence_fingerprint`]: crate::ShadowPm::persistence_fingerprint

use std::collections::HashMap;

/// Failure-point pruning policy ([`XfConfig::pruning`]).
///
/// [`XfConfig::pruning`]: crate::XfConfig::pruning
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pruning {
    /// Exhaustive exploration: every failure point executes its own
    /// post-failure run (the default, and the pre-pruning behavior).
    #[default]
    Off,
    /// One representative execution per persistence-state equivalence
    /// class; every other member replays the representative's post-failure
    /// trace against its own shadow checkpoint.
    Equivalence,
}

impl Pruning {
    /// Whether any pruning machinery (fingerprinting) is active.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        *self == Pruning::Equivalence
    }
}

/// Per-run equivalence-class cache: fingerprint → representative value
/// (each sink keeps what it needs to replay the representative — the
/// batch and stream sinks the post trace and outcome, the parallel
/// driver's worker pool the representative's job id).
///
/// Failure points served from the post-trace store neither consult nor
/// populate the cache — a member whose would-be representative was served
/// from the store simply becomes the new representative, mirroring how
/// the image-dedup cache treats them.
#[derive(Debug)]
pub struct PruneCache<V> {
    enabled: bool,
    classes: HashMap<u64, V>,
    fps_pruned: u64,
}

impl<V> PruneCache<V> {
    /// An empty cache under `mode` (inert for [`Pruning::Off`]).
    #[must_use]
    pub fn new(mode: Pruning) -> Self {
        PruneCache {
            enabled: mode.is_enabled(),
            classes: HashMap::new(),
            fps_pruned: 0,
        }
    }

    /// Whether lookups can ever hit (pruning enabled).
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Looks up the representative for `fingerprint`. `Some` means
    /// *prune*: skip the execution and replay the returned representative.
    /// `None` means *execute* — a class miss or pruning disabled; callers
    /// should then offer the executed result via [`PruneCache::insert`].
    pub fn lookup(&mut self, fingerprint: u64) -> Option<&V> {
        let rep = self.classes.get(&fingerprint)?;
        self.fps_pruned += 1;
        Some(rep)
    }

    /// Installs `value` as the class representative unless the class
    /// already has one (first executed member wins).
    pub fn insert(&mut self, fingerprint: u64, value: V) {
        if self.enabled {
            self.classes.entry(fingerprint).or_insert(value);
        }
    }

    /// Distinct equivalence classes observed.
    #[must_use]
    pub fn classes_total(&self) -> u64 {
        self.classes.len() as u64
    }

    /// Members pruned (executions skipped).
    #[must_use]
    pub fn fps_pruned(&self) -> u64 {
        self.fps_pruned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_mode_never_hits() {
        let mut c: PruneCache<u32> = PruneCache::new(Pruning::Off);
        c.insert(7, 1);
        assert!(c.lookup(7).is_none());
        assert_eq!(c.classes_total(), 0, "off mode stores nothing");
        assert!(!c.is_enabled());
    }

    #[test]
    fn equivalence_prunes_members_after_the_representative() {
        let mut c: PruneCache<u32> = PruneCache::new(Pruning::Equivalence);
        assert!(c.lookup(7).is_none(), "first member executes");
        c.insert(7, 42);
        assert_eq!(c.lookup(7), Some(&42));
        assert_eq!(c.lookup(7), Some(&42));
        assert!(c.lookup(8).is_none(), "new class executes");
        assert_eq!(c.fps_pruned(), 2);
        assert_eq!(c.classes_total(), 1);
    }

    #[test]
    fn first_representative_wins() {
        let mut c: PruneCache<u32> = PruneCache::new(Pruning::Equivalence);
        c.insert(7, 1);
        c.insert(7, 2);
        assert_eq!(c.lookup(7), Some(&1));
    }
}
