//! Pins the persistence-fingerprint values themselves, not just their
//! partition. The class cache and the run journal store these keys across
//! processes, so a change to how the fingerprint is maintained must leave
//! every value bit-identical or old cache files silently go cold.
//!
//! Each case records a bug-free run, fingerprints every recorded failure
//! point through the offline census path and compares an FNV-1a digest of
//! the ordered key sequence against a constant. The constants were taken
//! from the full-rescan fingerprint that preceded the incremental record
//! index.
//!
//! The run fingerprint string is pinned the same way: it names the
//! post-trace store a run may reuse and the campaign server's cache files,
//! so it must stay byte-identical for every configuration still accepted.

use xfd::pmem::PersistDomain;
use xfd::workloads::bugs::{BugSet, WorkloadKind};
use xfd::workloads::build;
use xfd::xfdetector::offline::failure_point_fingerprints;
use xfd::xfdetector::{run_fingerprint, Pruning, XfConfig, XfDetector};

const OPS: u64 = 100;

/// FNV-1a over the key count and then each key, little-endian.
fn digest(keys: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let words = std::iter::once(keys.len() as u64).chain(keys.iter().copied());
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn keys(kind: WorkloadKind, domain: PersistDomain) -> Vec<u64> {
    let cfg = XfConfig {
        record_trace: true,
        domain,
        ..XfConfig::default()
    };
    let outcome = XfDetector::new(cfg)
        .run(build(kind, OPS, BugSet::none()))
        .expect("detection runs");
    failure_point_fingerprints(&outcome.recorded.expect("trace recorded"))
}

#[test]
fn fingerprint_values_match_the_full_rescan() {
    let golden: [(WorkloadKind, PersistDomain, usize, u64); 6] = [
        (
            WorkloadKind::Btree,
            PersistDomain::Adr,
            437,
            0x6674_69e3_430b_31be,
        ),
        (
            WorkloadKind::Btree,
            PersistDomain::Eadr,
            437,
            0xc69b_4d01_f2c3_84b8,
        ),
        (
            WorkloadKind::HashmapTx,
            PersistDomain::Adr,
            551,
            0x0062_c906_a26a_f17b,
        ),
        (
            WorkloadKind::HashmapTx,
            PersistDomain::Eadr,
            551,
            0x0cf9_503a_9617_e514,
        ),
        (
            WorkloadKind::HashmapAtomic,
            PersistDomain::Adr,
            716,
            0xf82e_1a8d_b213_56a1,
        ),
        (
            WorkloadKind::HashmapAtomic,
            PersistDomain::Eadr,
            716,
            0x704d_fbca_f3dc_6aaa,
        ),
    ];
    let mut mismatches = Vec::new();
    for (kind, domain, fps, expected) in golden {
        let k = keys(kind, domain);
        let got = (k.len(), digest(&k));
        if got != (fps, expected) {
            mismatches.push(format!(
                "{kind:?}/{domain:?}: {} failure points, digest {:#018x}",
                got.0, got.1
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "fingerprints moved:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn run_fingerprint_strings_match_the_pinned_values() {
    // The `catch_post_panics=true` term names a retired switch and is kept
    // verbatim so existing stores and server cache files stay warm.
    const PREFIX: &str = "workload=btree;skip_empty=true;first_read_only=true;\
        inject_at_completion=true;fire_on_every_write=false;catch_post_panics=true;\
        crash_policy=FullImage;rng_seed=0x5eedcafe;dedup_images=true;post_budget=None;\
        threads=1;schedule=rr;";
    let golden = [
        (XfConfig::default(), "domain=adr;pruning=Off"),
        (
            XfConfig {
                pruning: Pruning::Equivalence,
                ..XfConfig::default()
            },
            "domain=adr;pruning=Equivalence",
        ),
        (
            XfConfig {
                domain: PersistDomain::Eadr,
                ..XfConfig::default()
            },
            "domain=eadr;pruning=Off",
        ),
    ];
    for (config, suffix) in golden {
        assert_eq!(
            run_fingerprint("btree", &config),
            format!("{PREFIX}{suffix}")
        );
    }
}
