//! The decoupled backend (§5.5): record a detection run's traces, ship them
//! as a compact `.xft` file, and re-run the analysis without the program.
//!
//! ```sh
//! cargo run --example offline_analysis
//! ```
//!
//! The same split is available from the command line with the `xfd` binary:
//!
//! ```sh
//! # Frontend machine: run detection through the streaming pipeline and
//! # write the trace (plus the online report for comparison).
//! cargo run --release --bin xfd -- record --workload hashmap_atomic \
//!     --bug HaNoPersistNodeKv -o run.xft --report online.json
//!
//! # Backend machine: re-derive the findings from the trace alone.
//! cargo run --release --bin xfd -- analyze run.xft --out offline.json
//!
//! # Inspect the container without analyzing.
//! cargo run --release --bin xfd -- info run.xft
//! ```

use std::fs::File;
use std::io::BufWriter;

use xfd_workloads::bugs::BugId;
use xfd_workloads::hashmap_atomic::HashmapAtomic;
use xfdetector::{offline, XfConfig, XfDetector};
use xfstream::{read_recorded_run, write_recorded_run, XftMmapReader};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Frontend: run the buggy workload with trace recording enabled.
    let cfg = XfConfig {
        record_trace: true,
        ..XfConfig::default()
    };
    let outcome =
        XfDetector::new(cfg).run(HashmapAtomic::new(3).with_bugs(BugId::HaNoPersistNodeKv))?;
    let recorded = outcome.recorded.expect("recording was enabled");
    println!(
        "frontend: {} trace entries across {} failure points, {} finding(s)",
        recorded.entry_count(),
        recorded.failure_points.len(),
        outcome.report.len(),
    );

    // Ship the trace as a compact `.xft` file: any process — or machine —
    // can pick it up later.
    let path = std::env::temp_dir().join("xfd-offline-example.xft");
    write_recorded_run(BufWriter::new(File::create(&path)?), &recorded)?;
    let xft_bytes = std::fs::metadata(&path)?.len();
    let json_bytes = serde_json::to_string(&recorded)?.len() as u64;
    println!(
        "serialized trace: {xft_bytes} bytes of .xft at {} ({json_bytes} as JSON, {:.1}x larger)",
        path.display(),
        json_bytes as f64 / xft_bytes as f64,
    );

    // Peek at the container header before committing to a full decode.
    let bytes = std::fs::read(&path)?;
    let xft = XftMmapReader::from_bytes(&bytes[..])?;
    println!(
        "header: version {}, {:?} entries, {:?} failure points",
        xft.header().version,
        xft.header().entry_count,
        xft.header().fp_count,
    );

    // Backend: decode and analyze, no workload code involved.
    let reloaded = read_recorded_run(&bytes)?;
    let report = offline::analyze(&reloaded, true);
    println!("\nbackend replay:");
    println!("{report}");

    assert_eq!(report.race_count(), outcome.report.race_count());
    println!("offline findings match the online run");
    std::fs::remove_file(&path).ok();
    Ok(())
}
