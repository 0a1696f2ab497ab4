//! Figure 13: scalability — detection time and failure-point count as the
//! number of pre-failure transactions grows ({1,10,20,30,40,50}) for the
//! five microbenchmarks. The paper's claim: both grow linearly.
//!
//! ```sh
//! cargo run --release -p xfd-bench --bin fig13
//! ```

use xfd_bench::{run_concurrent_detection, run_detection, secs, trace_sizes};
use xfd_workloads::{concurrent_workloads, microbenchmarks};
use xfdetector::ScheduleSpec;

fn main() {
    let sweep = [1u64, 10, 20, 30, 40, 50];
    println!("Figure 13: execution time and #failure points vs #pre-failure transactions");
    println!(
        "{:<16} {:>6} {:>12} {:>10} {:>10} {:>8} {:>12} {:>12} {:>12} {:>12} {:>11}",
        "workload",
        "#tx",
        "time[s]",
        "check[s]",
        "#fp",
        "#dedup",
        "pre-entries",
        "post-entries",
        "snap[KiB]",
        "shadow[KiB]",
        "trace[KiB]"
    );
    for kind in microbenchmarks() {
        let mut prev_fp = 0u64;
        for &n in &sweep {
            let outcome = run_detection(kind, n);
            let s = &outcome.stats;
            let trace = trace_sizes(kind, n);
            println!(
                "{:<16} {:>6} {:>12} {:>10} {:>10} {:>8} {:>12} {:>12} {:>12.1} {:>12.1} {:>11.1}",
                kind.to_string(),
                n,
                secs(s.total_time),
                secs(s.check_time),
                s.failure_points,
                s.images_deduped,
                s.pre_entries,
                s.post_entries,
                s.snapshot_bytes_copied as f64 / 1024.0,
                s.shadow_bytes_cloned as f64 / 1024.0,
                trace.xft_bytes as f64 / 1024.0,
            );
            assert!(
                s.failure_points >= prev_fp,
                "failure points must grow with the transaction count"
            );
            prev_fp = s.failure_points;
        }
        println!();
    }
    println!("Schedule-space scalability: exhaustive prefix K over 2 threads");
    println!(
        "{:<16} {:>4} {:>12} {:>12} {:>10} {:>12}",
        "workload", "K", "#schedules", "time[s]", "#fp", "x-findings"
    );
    for kind in concurrent_workloads() {
        let mut prev = 0u64;
        for k in [1u32, 2, 3] {
            let outcome = run_concurrent_detection(kind, 2, 2, ScheduleSpec::Exhaustive(k));
            let s = &outcome.stats;
            println!(
                "{:<16} {:>4} {:>12} {:>12} {:>10} {:>12}",
                kind.to_string(),
                k,
                s.schedules_explored,
                secs(s.total_time),
                s.failure_points,
                s.cross_thread_findings,
            );
            assert!(
                s.schedules_explored > prev,
                "the explored schedule count must grow with the prefix bound"
            );
            prev = s.schedules_explored;
        }
        println!();
    }
    println!("paper shape: time grows linearly with the number of failure points");
}
