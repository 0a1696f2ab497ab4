//! Multi-session campaign-server stress test: several concurrent clients
//! with overlapping jobs, compared against one-shot [`Session`] runs.
//!
//! Checks the server's three core guarantees end to end:
//!
//! - **fidelity** — every report streamed by the server is byte-identical
//!   to a local `Session::run` of the same spec,
//! - **cross-run cache** — a repeat campaign hits the class cache
//!   (`cache_hits > 0`) and performs at least 5x fewer post-failure
//!   executions with an unchanged report,
//! - **clean shutdown** — after `SHUTDOWN`, `Server::run` returns with
//!   every executor and handler joined (no orphaned workers).

use std::thread;

use xfd::workloads::bugs::{BugId, BugSet, WorkloadKind};
use xfd::workloads::build_with_init;
use xfd::xfdetector::JobSpec;
use xfd::xfserve::{AnyStream, Client, JobEvent, Server, ServerOptions};

/// The overlapping job mix: four workloads, two of them with injected
/// bugs, all on the server's default parallel + equivalence settings.
fn job_mix() -> Vec<JobSpec> {
    let spec = |workload: &str, ops: u64, bugs: &[&str]| JobSpec {
        workload: Some(workload.to_owned()),
        ops: Some(ops),
        bugs: bugs.iter().map(|b| (*b).to_owned()).collect(),
        mode: Some("parallel".to_owned()),
        pruning: Some("equivalence".to_owned()),
        ..JobSpec::default()
    };
    vec![
        spec("btree", 8, &["BtNoAddRootPtr"]),
        spec("hashmap_tx", 8, &["HmNoAddBucketHead"]),
        spec("ctree", 6, &[]),
        spec("rbtree", 8, &[]),
    ]
}

/// Runs the spec locally through the session API and returns the bare
/// report serialization — the byte-level ground truth.
fn local_report(spec: &JobSpec) -> String {
    let kind: WorkloadKind = spec.workload.as_deref().unwrap().parse().unwrap();
    let bugs: BugSet = spec
        .bugs
        .iter()
        .map(|name| {
            BugId::all()
                .iter()
                .copied()
                .find(|b| format!("{b:?}") == *name)
                .unwrap()
        })
        .collect();
    let outcome = spec
        .apply(xfd::xfdetector::Session::builder())
        .unwrap()
        .build()
        .unwrap()
        .run(
            build_with_init(kind, 0, spec.ops.unwrap(), bugs),
            spec.mode().unwrap(),
        )
        .unwrap();
    serde_json::to_string(&outcome.report).unwrap()
}

/// Submits one job and returns its `(report, metrics)` payloads.
fn submit_and_collect(endpoint: &str, spec: &JobSpec) -> (String, String) {
    let mut client = Client::new(AnyStream::connect_tcp(endpoint).expect("connect"));
    client.submit(spec, None).expect("submit");
    let mut report = None;
    let mut metrics = None;
    let code = client
        .stream_job(&mut |ev: &JobEvent| match ev {
            JobEvent::Report { json } => report = Some(json.clone()),
            JobEvent::Metrics { json } => metrics = Some(json.clone()),
            JobEvent::Error { message } => panic!("job failed: {message}"),
            _ => {}
        })
        .expect("stream");
    assert_eq!(code, 0, "job exit code");
    (report.expect("report"), metrics.expect("metrics"))
}

fn json_u64(json: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = json
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key} in {json}"));
    json[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("integer value")
}

#[test]
fn concurrent_clients_get_cached_byte_identical_reports() {
    let cache_dir = std::env::temp_dir().join(format!("xfd-serve-stress-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    std::fs::create_dir_all(&cache_dir).expect("create cache dir");

    let server = Server::bind_tcp(
        "127.0.0.1:0",
        ServerOptions {
            exec_workers: 2,
            cache_dir: Some(cache_dir.clone()),
        },
    )
    .expect("bind");
    let endpoint = server.local_endpoint().to_owned();
    let server_thread = thread::spawn(move || server.run());

    let jobs = job_mix();
    let expected: Vec<String> = jobs.iter().map(local_report).collect();

    // Phase 1 (cold): one client thread per job, all in flight at once
    // against the 2-executor pool.
    let cold: Vec<(String, String)> = thread::scope(|s| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|spec| {
                let ep = endpoint.clone();
                s.spawn(move || submit_and_collect(&ep, spec))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });

    // Phase 2 (warm): the identical mix again, concurrently — every job
    // finds its phase-1 classes in the cross-run cache.
    let warm: Vec<(String, String)> = thread::scope(|s| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|spec| {
                let ep = endpoint.clone();
                s.spawn(move || submit_and_collect(&ep, spec))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });

    for (i, spec) in jobs.iter().enumerate() {
        let name = spec.workload.as_deref().unwrap();
        // Fidelity: server report == local one-shot report, both phases.
        assert_eq!(cold[i].0, expected[i], "{name}: cold report diverges");
        assert_eq!(warm[i].0, expected[i], "{name}: warm report diverges");

        let cold_posts = json_u64(&cold[i].1, "post_runs");
        let warm_posts = json_u64(&warm[i].1, "post_runs");
        let warm_hits = json_u64(&warm[i].1, "cache_hits");
        assert_eq!(
            json_u64(&cold[i].1, "cache_hits"),
            0,
            "{name}: cold run hit"
        );
        assert!(warm_hits > 0, "{name}: no cache hits on repeat submission");
        assert!(cold_posts > 0, "{name}: cold run executed nothing");
        assert!(
            warm_posts * 5 <= cold_posts,
            "{name}: expected >=5x fewer post runs, cold {cold_posts} warm {warm_posts}"
        );
    }

    // Clean shutdown: the queue is drained and every worker joined.
    let mut stopper = Client::new(AnyStream::connect_tcp(&endpoint).expect("connect"));
    stopper.shutdown().expect("shutdown");
    server_thread
        .join()
        .expect("server thread")
        .expect("server run");
    assert!(
        AnyStream::connect_tcp(&endpoint).is_err(),
        "server still accepting after shutdown"
    );
    let _ = std::fs::remove_dir_all(&cache_dir);
}
