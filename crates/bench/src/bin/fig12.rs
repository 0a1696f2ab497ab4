//! Figure 12: (a) detection wall-clock time per workload with the
//! pre-/post-failure breakdown, and (b) slowdown over the trace-only
//! ("Pure Pin") and original configurations.
//!
//! ```sh
//! cargo run --release -p xfd-bench --bin fig12
//! ```
//!
//! Like the paper's methodology (§6.2.1), each workload performs one
//! insertion operation per run (plus its recovery continuation per failure
//! point).

use xfd_bench::{
    geo_mean, run_baseline, run_concurrent_detection, run_detection, run_detection_with,
    run_streaming_detection, secs, trace_sizes, Baseline,
};
use xfd_workloads::bugs::{BugSet, WorkloadKind};
use xfd_workloads::{all_workloads, build, concurrent_workloads};
use xfdetector::{ScheduleSpec, Workload, XfConfig};

fn main() {
    // The paper uses 1 test transaction/query; a few init ops make the
    // recovery walk non-trivial.
    const OPS: u64 = 1;

    println!("Figure 12a: execution time of XFDetector (one insertion per workload)");
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8} {:>12} {:>12}",
        "workload",
        "total[s]",
        "pre[s]",
        "post[s]",
        "check[s]",
        "#fp",
        "#dedup",
        "post%",
        "snap[KiB]",
        "shadow[KiB]"
    );
    let mut rows = Vec::new();
    for kind in all_workloads() {
        let outcome = run_detection(kind, OPS);
        let s = &outcome.stats;
        println!(
            "{:<16} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8} {:>7.1}% {:>12.1} {:>12.1}",
            kind.to_string(),
            secs(s.total_time),
            secs(s.pre_exec_time()),
            secs(s.post_exec_time + s.detect_time),
            secs(s.check_time),
            s.failure_points,
            s.images_deduped,
            100.0 * s.post_fraction(),
            s.snapshot_bytes_copied as f64 / 1024.0,
            s.shadow_bytes_cloned as f64 / 1024.0,
        );
        rows.push((kind, s.total_time));
    }

    println!();
    println!("Figure 12b: slowdown over Pure-Pin (trace-only) and Original");
    println!(
        "{:<16} {:>14} {:>14}",
        "workload", "over trace", "over original"
    );
    let mut over_trace = Vec::new();
    let mut over_orig = Vec::new();
    for (kind, total) in rows {
        let trace = run_baseline(kind, OPS, Baseline::TraceOnly);
        let orig = run_baseline(kind, OPS, Baseline::Original);
        let rt = total.as_secs_f64() / trace.as_secs_f64().max(f64::MIN_POSITIVE);
        let ro = total.as_secs_f64() / orig.as_secs_f64().max(f64::MIN_POSITIVE);
        println!("{:<16} {:>13.1}x {:>13.1}x", kind.to_string(), rt, ro);
        over_trace.push(rt);
        over_orig.push(ro);
    }
    println!(
        "{:<16} {:>13.1}x {:>13.1}x   (geometric mean)",
        "Average",
        geo_mean(&over_trace),
        geo_mean(&over_orig)
    );
    println!();
    println!(
        "Snapshot traffic: copy-on-write crash images vs one full pool copy per failure point"
    );
    println!(
        "{:<16} {:>14} {:>14} {:>10}",
        "workload", "full[KiB]", "cow[KiB]", "reduction"
    );
    for kind in [WorkloadKind::Btree, WorkloadKind::HashmapTx] {
        let s = run_detection_with(
            kind,
            OPS,
            XfConfig {
                dedup_images: false,
                ..XfConfig::default()
            },
        )
        .stats;
        // A flat snapshot copies the whole pool at least once per failure
        // point; the seed engine paid three copies (capture, fork, image).
        let full = build(kind, OPS, BugSet::none()).pool_size() * s.failure_points;
        println!(
            "{:<16} {:>14.1} {:>14.1} {:>9.1}x",
            kind.to_string(),
            full as f64 / 1024.0,
            s.snapshot_bytes_copied as f64 / 1024.0,
            full as f64 / s.snapshot_bytes_copied.max(1) as f64,
        );
    }

    println!();
    println!("Shadow-checkpoint traffic: COW line slabs vs per-failure-point deep copies");
    println!(
        "{:<16} {:>8} {:>16} {:>16}",
        "workload", "#fp", "deep-copy[KiB]", "cow-fault[KiB]"
    );
    for kind in [WorkloadKind::Btree, WorkloadKind::HashmapTx] {
        let s = run_detection(kind, OPS).stats;
        // A deep-copying `begin_post` would clone the whole resident shadow
        // at every failure point; the COW checkpoint pays only for the
        // lines mutated while a checkpoint is alive (zero sequentially).
        println!(
            "{:<16} {:>8} {:>16.1} {:>16.1}",
            kind.to_string(),
            s.failure_points,
            (s.failure_points * s.shadow_resident_bytes) as f64 / 1024.0,
            s.shadow_bytes_cloned as f64 / 1024.0,
        );
    }

    println!();
    println!("Hot-path counters: stream trace FIFO");
    println!(
        "{:<16} {:>11} {:>11} {:>9}",
        "workload", "ring-spins", "ring-parks", "batches"
    );
    for kind in [WorkloadKind::Btree, WorkloadKind::HashmapTx] {
        let stream = run_streaming_detection(kind, OPS, XfConfig::default()).stats;
        println!(
            "{:<16} {:>11} {:>11} {:>9}",
            kind.to_string(),
            stream.ring_spins,
            stream.ring_parks,
            stream.stream_batches,
        );
    }

    println!();
    println!("Concurrent detection: interleaving schedules over the lock-free workloads");
    println!(
        "{:<16} {:>8} {:>14} {:>11} {:>10} {:>8} {:>12}",
        "workload", "threads", "schedule", "#schedules", "time[s]", "#fp", "x-findings"
    );
    for kind in concurrent_workloads() {
        for (threads, schedule, label) in [
            (1u32, ScheduleSpec::RoundRobin, "rr"),
            (2, ScheduleSpec::RoundRobin, "rr"),
            (4, ScheduleSpec::RoundRobin, "rr"),
            (2, ScheduleSpec::Seeded(1), "seed:1"),
            (2, ScheduleSpec::Exhaustive(3), "exhaustive:3"),
        ] {
            let outcome = run_concurrent_detection(kind, OPS, threads, schedule);
            let s = &outcome.stats;
            println!(
                "{:<16} {:>8} {:>14} {:>11} {:>10} {:>8} {:>12}",
                kind.to_string(),
                threads,
                label,
                s.schedules_explored,
                secs(s.total_time),
                s.failure_points,
                s.cross_thread_findings,
            );
        }
    }

    println!();
    println!("Trace transport: compact .xft encoding vs the serde_json fallback");
    println!(
        "{:<16} {:>10} {:>12} {:>12} {:>10}",
        "workload", "#entries", "xft[KiB]", "json[KiB]", "ratio"
    );
    for kind in all_workloads() {
        let t = trace_sizes(kind, OPS);
        println!(
            "{:<16} {:>10} {:>12.1} {:>12.1} {:>9.1}x",
            kind.to_string(),
            t.entries,
            t.xft_bytes as f64 / 1024.0,
            t.json_bytes as f64 / 1024.0,
            t.ratio(),
        );
    }

    println!();
    println!(
        "paper shape: post-failure dominates total time; detection is ~12x \
         slower than trace-only and ~400x slower than the original; COW \
         snapshots cut image-copy traffic by orders of magnitude; the .xft \
         trace stream is several times denser than JSON"
    );
}
