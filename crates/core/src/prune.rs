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

use crate::error::ConfigError;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Failure-point pruning policy ([`XfConfig::pruning`]).
///
/// [`XfConfig::pruning`]: crate::XfConfig::pruning
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Pruning {
    /// Exhaustive exploration: every failure point executes its own
    /// post-failure run (the default, and the pre-pruning behavior).
    #[default]
    Off,
    /// One representative execution per persistence-state equivalence
    /// class; every other member replays the representative's post-failure
    /// trace against its own shadow checkpoint.
    Equivalence,
    /// As [`Pruning::Equivalence`], but a deterministic `rate` fraction of
    /// would-be-pruned members execute anyway as audit runs — a sampled
    /// self-check that the class representative really stands in for its
    /// members. Audited members never replace the representative.
    Sampled {
        /// Fraction of class hits to audit-execute, in `[0, 1]`.
        rate: f64,
        /// Seed decorrelating the audit choice across runs.
        seed: u64,
    },
}

impl Pruning {
    /// Whether any pruning machinery (fingerprinting) is active.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        !matches!(self, Pruning::Off)
    }

    /// Validates the policy ([`ConfigError::InvalidSamplingRate`] for a
    /// `Sampled` rate outside `[0, 1]`).
    ///
    /// # Errors
    ///
    /// [`ConfigError::InvalidSamplingRate`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self {
            Pruning::Sampled { rate, .. } if !(0.0..=1.0).contains(rate) => {
                Err(ConfigError::InvalidSamplingRate)
            }
            _ => Ok(()),
        }
    }

    /// Whether the class hit at failure point `fp_id` should execute anyway
    /// as an audit run. Deterministic in `(self, fp_id)`, so all three
    /// engines — which assign identical failure-point ids — make identical
    /// decisions.
    #[must_use]
    pub fn audits(&self, fp_id: u64) -> bool {
        match *self {
            Pruning::Off | Pruning::Equivalence => false,
            Pruning::Sampled { rate, seed } => {
                let mut h = FNV_OFFSET;
                for b in seed.to_le_bytes().iter().chain(&fp_id.to_le_bytes()) {
                    h = (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
                }
                // Top 53 bits → uniform in [0, 1).
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                u < rate
            }
        }
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
    mode: Pruning,
    classes: HashMap<u64, V>,
    fps_pruned: u64,
}

impl<V> PruneCache<V> {
    /// An empty cache under `mode` (inert for [`Pruning::Off`]).
    #[must_use]
    pub fn new(mode: Pruning) -> Self {
        PruneCache {
            mode,
            classes: HashMap::new(),
            fps_pruned: 0,
        }
    }

    /// Whether lookups can ever hit (pruning enabled).
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.mode.is_enabled()
    }

    /// Looks up the representative for `fingerprint` at failure point
    /// `fp_id`. `Some` means *prune*: skip the execution and replay the
    /// returned representative. `None` means *execute* — a class miss, a
    /// sampled audit hit, or pruning disabled; callers should then offer
    /// the executed result via [`PruneCache::insert`].
    pub fn lookup(&mut self, fingerprint: u64, fp_id: u64) -> Option<&V> {
        if !self.mode.is_enabled() || !self.classes.contains_key(&fingerprint) {
            return None;
        }
        if self.mode.audits(fp_id) {
            return None; // audit run: execute, keep the representative
        }
        self.fps_pruned += 1;
        self.classes.get(&fingerprint)
    }

    /// Installs `value` as the class representative unless the class
    /// already has one (first executed member wins; audit runs never
    /// displace the representative).
    pub fn insert(&mut self, fingerprint: u64, value: V) {
        if self.mode.is_enabled() {
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
        assert!(c.lookup(7, 0).is_none());
        assert_eq!(c.classes_total(), 0, "off mode stores nothing");
        assert!(!c.is_enabled());
    }

    #[test]
    fn equivalence_prunes_members_after_the_representative() {
        let mut c: PruneCache<u32> = PruneCache::new(Pruning::Equivalence);
        assert!(c.lookup(7, 0).is_none(), "first member executes");
        c.insert(7, 42);
        assert_eq!(c.lookup(7, 1), Some(&42));
        assert_eq!(c.lookup(7, 2), Some(&42));
        assert!(c.lookup(8, 3).is_none(), "new class executes");
        assert_eq!(c.fps_pruned(), 2);
        assert_eq!(c.classes_total(), 1);
    }

    #[test]
    fn first_representative_wins() {
        let mut c: PruneCache<u32> = PruneCache::new(Pruning::Equivalence);
        c.insert(7, 1);
        c.insert(7, 2);
        assert_eq!(c.lookup(7, 9), Some(&1));
    }

    #[test]
    fn sampled_audits_are_deterministic_and_roughly_rated() {
        let mode = Pruning::Sampled {
            rate: 0.25,
            seed: 99,
        };
        let audited: Vec<u64> = (0..1000).filter(|&id| mode.audits(id)).collect();
        let again: Vec<u64> = (0..1000).filter(|&id| mode.audits(id)).collect();
        assert_eq!(audited, again, "audit choice must be deterministic");
        assert!(
            (150..350).contains(&audited.len()),
            "rate 0.25 over 1000 ids should audit roughly a quarter, got {}",
            audited.len()
        );
    }

    #[test]
    fn sampled_rate_bounds_are_validated() {
        assert!(Pruning::Sampled { rate: 0.0, seed: 0 }.validate().is_ok());
        assert!(Pruning::Sampled { rate: 1.0, seed: 0 }.validate().is_ok());
        for rate in [-0.1, 1.1, f64::NAN] {
            assert_eq!(
                Pruning::Sampled { rate, seed: 0 }.validate(),
                Err(ConfigError::InvalidSamplingRate),
                "{rate}"
            );
        }
        assert!(Pruning::Off.validate().is_ok());
        assert!(Pruning::Equivalence.validate().is_ok());
    }

    #[test]
    fn rate_extremes_behave_like_the_named_modes() {
        let full = Pruning::Sampled { rate: 1.0, seed: 3 };
        assert!((0..100).all(|id| full.audits(id)), "rate 1 audits all");
        let none = Pruning::Sampled { rate: 0.0, seed: 3 };
        assert!((0..100).all(|id| !none.audits(id)), "rate 0 audits none");
    }
}
