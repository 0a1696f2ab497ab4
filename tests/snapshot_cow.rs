//! Acceptance test for the copy-on-write snapshot subsystem: on the
//! `btree` and `hashmap_tx` workloads from Figure 12, a run must copy at
//! most half a pool per failure point. One full copy per failure point is
//! the least a flat snapshot can cost (the seed engine paid three: capture,
//! fork and image), so the bound holds COW to at least a 2× saving over
//! any flat scheme — with image dedup off, and the dedup cache must not
//! change the report.

use xfd::workloads::bugs::{BugSet, WorkloadKind};
use xfd::workloads::{build, validation_ops};
use xfd::xfdetector::{RunOutcome, Workload, XfConfig, XfDetector};

fn run(kind: WorkloadKind, config: XfConfig) -> (u64, RunOutcome) {
    let w = build(kind, validation_ops(kind), BugSet::none());
    let pool_size = w.pool_size();
    (pool_size, XfDetector::new(config).run(w).unwrap())
}

#[test]
fn cow_halves_snapshot_traffic_on_the_figure_12_workloads() {
    for kind in [WorkloadKind::Btree, WorkloadKind::HashmapTx] {
        let no_dedup = XfConfig {
            dedup_images: false,
            ..XfConfig::default()
        };
        let (pool_size, cow) = run(kind, no_dedup);
        let (_, dedup) = run(kind, XfConfig::default());

        assert_eq!(cow.stats.images_deduped, 0);
        assert_eq!(
            serde_json::to_string(&cow.report).unwrap(),
            serde_json::to_string(&dedup.report).unwrap(),
            "{kind:?}: dedup must not change the report"
        );
        for (label, outcome) in [("cow", &cow), ("cow+dedup", &dedup)] {
            let s = &outcome.stats;
            let one_copy_each = pool_size * s.failure_points;
            assert!(
                2 * s.snapshot_bytes_copied <= one_copy_each,
                "{kind:?} {label}: copied {} bytes over {} failure points of a \
                 {pool_size}-byte pool ({:.2} pools each, bound 0.5)",
                s.snapshot_bytes_copied,
                s.failure_points,
                s.snapshot_bytes_copied as f64 / one_copy_each.max(1) as f64
            );
        }
    }
}
