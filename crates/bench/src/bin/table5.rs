//! Table 5: validation of the synthetic bug suite — for every workload, the
//! number of PMTest-suite and additional bugs detected per category
//! (R = cross-failure race, S = semantic, P = performance).
//!
//! ```sh
//! cargo run --release -p xfd-bench --bin table5
//! ```

use std::collections::BTreeMap;

use pmem::PersistDomain;
use xfd_workloads::bugs::{BugId, BugSet, BugSuite};
use xfd_workloads::{build_concurrent, build_with_bug, validation_config, validation_ops};
use xfdetector::{BugCategory, Mode, Session, XfConfig, XfDetector};

fn main() {
    // (workload, suite) -> [detected R, detected S, detected P, total]
    let mut matrix: BTreeMap<(String, &'static str), [usize; 4]> = BTreeMap::new();
    let mut missed = Vec::new();

    for &bug in BugId::all() {
        // Hanging bugs (expected ExecutionFailure) carry a trace-entry
        // budget in their validation config; everything else runs with
        // the defaults. Concurrent-suite bugs need the two-thread session
        // path — single-threaded they are invisible by design.
        let outcome = if bug.suite() == BugSuite::Concurrent {
            let kind = bug.workload();
            let w = build_concurrent(kind, validation_ops(kind), BugSet::single(bug))
                .expect("concurrent-suite bugs live in concurrent workloads");
            Session::builder()
                .config(XfConfig {
                    threads: 2,
                    ..validation_config(bug)
                })
                .build()
                .expect("session")
                .run_concurrent(w, Mode::Batch)
                .expect("detection run failed")
        } else {
            // Domain-sensitive bugs that are invisible under ADR by design
            // (the reorder-window bug) validate under the domain that
            // exposes them; everything else runs the paper's ADR model.
            let mut cfg = validation_config(bug);
            if !bug.expected_under(PersistDomain::Adr) {
                cfg.domain = PersistDomain::CxlGpf { reorder_window: 4 };
            }
            XfDetector::new(cfg)
                .run(build_with_bug(bug))
                .expect("detection run failed")
        };
        let detected = match bug.expected_category() {
            BugCategory::Race => outcome.report.race_count() > 0,
            BugCategory::Semantic => outcome.report.semantic_count() > 0,
            BugCategory::Performance => outcome.report.performance_count() > 0,
            BugCategory::ExecutionFailure => outcome.report.execution_failure_count() > 0,
            _ => false,
        };
        let suite = match bug.suite() {
            BugSuite::PmTest => "PMTest suite",
            BugSuite::Additional => "Additional",
            BugSuite::NewBug => "New bugs",
            BugSuite::Concurrent => "Concurrent",
            BugSuite::DomainSensitive => "Domain",
        };
        let entry = matrix
            .entry((bug.workload().to_string(), suite))
            .or_insert([0; 4]);
        entry[3] += 1;
        if detected {
            match bug.expected_category() {
                BugCategory::Race => entry[0] += 1,
                BugCategory::Semantic => entry[1] += 1,
                BugCategory::Performance => entry[2] += 1,
                _ => {}
            }
        } else {
            missed.push(bug);
        }
    }

    println!("Table 5: synthetic bugs detected (R: race, S: semantic, P: performance)");
    println!(
        "{:<18} {:<14} {:>4} {:>4} {:>4} {:>8}",
        "workload", "suite", "R", "S", "P", "total"
    );
    for ((wl, suite), [r, s, p, total]) in &matrix {
        println!("{wl:<18} {suite:<14} {r:>4} {s:>4} {p:>4} {total:>8}");
    }
    println!();
    if missed.is_empty() {
        println!(
            "all {} injected bugs detected in their expected categories",
            BugId::all().len()
        );
    } else {
        println!("MISSED {} bug(s):", missed.len());
        for b in missed {
            println!("  {b}");
        }
        std::process::exit(1);
    }
    println!(
        "paper row reference: B-Tree 8R/2P+4R, C-Tree 5R/1P+1R, RB-Tree 7R/1P+1R, \
         Hashmap-TX 6R/1P+3R, Hashmap-Atomic 10R/2P+3R+4S"
    );
}
