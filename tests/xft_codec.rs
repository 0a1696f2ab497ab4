//! Acceptance tests for the `.xft` compact trace codec: lossless round
//! trips (including through a real file) and the size advantage over the
//! `serde_json` fallback representation.

use std::fs;
use std::io::BufWriter;

use xfd::workloads::bugs::{BugSet, WorkloadKind};
use xfd::workloads::{build, validation_ops};
use xfd::xfdetector::offline::RecordedRun;
use xfd::xfdetector::{XfConfig, XfDetector};
use xfd::xfstream::{encode_recorded_run, read_recorded_run, write_recorded_run, XftMmapReader};

fn record(kind: WorkloadKind) -> RecordedRun {
    let cfg = XfConfig {
        record_trace: true,
        ..XfConfig::default()
    };
    XfDetector::new(cfg)
        .run(build(kind, validation_ops(kind), BugSet::none()))
        .expect("detection runs")
        .recorded
        .expect("trace recorded")
}

#[test]
fn xft_is_at_least_five_times_smaller_than_json_on_btree() {
    // Acceptance criterion: the binary trace must be ≥5× smaller than the
    // serde_json form on the btree workload trace. The measured ratio also
    // lands in BENCH_detector.json (trace[KiB] column).
    let run = record(WorkloadKind::Btree);
    let json = serde_json::to_string(&run).unwrap();
    let xft = encode_recorded_run(&run).unwrap();
    let ratio = json.len() as f64 / xft.len() as f64;
    assert!(
        ratio >= 5.0,
        ".xft must be at least 5x smaller than JSON: {} / {} = {ratio:.1}x",
        json.len(),
        xft.len()
    );
}

#[test]
fn xft_round_trips_losslessly_for_every_workload() {
    for kind in WorkloadKind::ALL {
        let run = record(kind);
        assert!(run.entry_count() > 0, "{kind}");
        let bytes = encode_recorded_run(&run).unwrap();
        let back = read_recorded_run(&bytes[..]).unwrap();
        assert_eq!(
            serde_json::to_string(&run).unwrap(),
            serde_json::to_string(&back).unwrap(),
            "lossy round trip for {kind}"
        );
    }
}

#[test]
fn xft_round_trips_through_a_real_file() {
    let run = record(WorkloadKind::HashmapTx);
    let dir = std::env::temp_dir().join("xfd-xft-codec-test");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("hashmap_tx.xft");

    let file = fs::File::create(&path).unwrap();
    write_recorded_run(BufWriter::new(file), &run).unwrap();

    let mut xft = XftMmapReader::open(&path).unwrap();
    assert_eq!(xft.header().entry_count, Some(run.entry_count() as u64));
    while xft.next_event().unwrap().is_some() {}
    assert_eq!(xft.entries_read(), run.entry_count() as u64);
    assert_eq!(xft.failure_points_read(), run.failure_points.len() as u64);

    let back = read_recorded_run(&fs::read(&path).unwrap()).unwrap();
    assert_eq!(
        serde_json::to_string(&run).unwrap(),
        serde_json::to_string(&back).unwrap()
    );
    fs::remove_file(&path).ok();
}
