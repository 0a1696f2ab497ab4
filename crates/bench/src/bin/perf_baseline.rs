//! Detector performance baseline: the sequential engine, the parallel
//! engine and equivalence pruning on the Figure 12 workloads. Writes the
//! results to `BENCH_detector.json` at the repository root so the perf
//! trajectory is tracked in-tree.
//!
//! Every row records measured wall-clock times on this host (best of
//! `REPS`) plus `exec_work_s`, the sequential run's summed post-failure
//! execution time. No speedup is modelled: on a host with fewer CPUs than
//! `WORKERS` the parallel wall time-slices the available cores and says
//! nothing about scaling, which is what the `--wall` rows measure.
//!
//! With `--wall` the harness additionally sweeps the fully parallel
//! pipeline across 1/2/4/8 workers and records the *measured* wall-clock
//! times as `scaling` rows tagged `speedup_method: "wall"`. These rows are
//! honest: they always record the real `host_cpus`, and the trajectory
//! gate only enforces them when the producing host actually had multiple
//! CPUs.
//!
//! Every run also measures single-thread trace ingest: one recorded `.xft`
//! trace decoded end to end by the slice decoder. Its entry count and byte
//! size are deterministic and gated; entries per second is informational.
//!
//! Finally, a campaign-server throughput section submits the same job mix
//! to an in-process `xfd serve` instance twice — a cold phase and a warm
//! phase against the populated cross-run class cache — and records
//! jobs/second for both plus the warm cache-hit ratio. The per-workload
//! post-failure execution counters are deterministic and gated (warm runs
//! must hit the cache and execute at least 5x fewer representatives);
//! jobs/second is host-dependent and informational.
//!
//! ```sh
//! cargo run --release -p xfd-bench --bin perf_baseline [-- --wall]
//! ```

use std::time::{Duration, Instant};

use pmem::PersistDomain;
use serde::Serialize;
use xfd_bench::{run_detection_with, run_parallel_detection, secs, trace_sizes};
use xfd_workloads::bugs::WorkloadKind;
use xfdetector::{Pruning, XfConfig};
use xfstream::XftMmapReader;

const WORKERS: usize = 8;
const REPS: u32 = 3;
/// Worker counts swept by the `--wall` multicore scaling rows.
const WALL_WORKERS: [usize; 4] = [1, 2, 4, 8];
/// Aim for roughly this many decoded entries per ingest timing sample.
const INGEST_TARGET_ENTRIES: u64 = 200_000;

#[derive(Serialize)]
struct Row {
    workload: String,
    ops: u64,
    workers: usize,
    failure_points: u64,
    sequential_s: f64,
    /// Post-failure execution work (sequential `post_exec_time`).
    exec_work_s: f64,
    /// Parallel-engine wall time at `workers` workers on this host.
    parallel_wall_s: f64,
    /// Sequential wall time under `Pruning::Equivalence`.
    pruned_s: f64,
    /// Persistence-state equivalence classes among the failure points.
    classes_total: u64,
    /// Failure points whose post-failure execution was pruned.
    fps_pruned: u64,
    /// Failure points per class: the post-failure execution reduction.
    pruning_ratio: f64,
    shadow_bytes_cloned: u64,
    shadow_resident_bytes: u64,
    /// Recorded trace entries (pre-failure plus all post-failure traces).
    trace_entries: u64,
    /// Size of the compact `.xft` binary trace encoding.
    trace_xft_bytes: u64,
    /// Size of the `serde_json` fallback trace encoding.
    trace_json_bytes: u64,
    /// JSON-over-`.xft` compression ratio.
    trace_json_over_xft: f64,
}

/// One measured wall-clock point of the `--wall` multicore sweep.
#[derive(Serialize)]
struct ScalingRow {
    workload: String,
    ops: u64,
    workers: usize,
    /// Sequential-engine wall time (the scaling denominator).
    sequential_wall_s: f64,
    /// Fully parallel pipeline wall time at `workers` workers.
    parallel_wall_s: f64,
    speedup_wall: f64,
    /// Always `"wall"`: these are raw measured times, never modeled. The
    /// trajectory gate only enforces them when `host_cpus >= 2`.
    speedup_method: &'static str,
}

/// Single-thread `.xft` ingest: the recorded trace decoded end to end by
/// the slice decoder. `entries` and `xft_bytes` are pure functions of the
/// workload and the encoder, so the trajectory gate pins them to the
/// committed row; the timings are host-dependent and informational.
#[derive(Serialize)]
struct IngestRow {
    workload: String,
    ops: u64,
    /// Entries in the recorded trace (one full decode pass).
    entries: u64,
    xft_bytes: u64,
    /// Full decode passes per timing sample.
    passes: u32,
    /// Best per-pass wall time.
    decode_s: f64,
    entries_per_s: f64,
}

/// One persistence-domain cell of the domain sweep: the same workload and
/// ops analyzed under each domain model. Every column except the walls is
/// a pure function of the trace and the domain, so the trajectory gate
/// holds them to exact equality with the committed baseline — a drift
/// means the domain semantics (or the pruning fingerprint's domain fold)
/// changed behavior.
#[derive(Serialize)]
struct DomainRow {
    workload: String,
    ops: u64,
    /// `adr`, `eadr` or `cxl:WINDOW` — the CLI spelling.
    domain: String,
    failure_points: u64,
    classes_total: u64,
    fps_pruned: u64,
    pruning_ratio: f64,
    /// Race findings under this domain (deterministic, gated).
    race_findings: u64,
    /// Semantic findings under this domain (deterministic, gated).
    semantic_findings: u64,
    /// Walls on this host, informational only.
    sequential_s: f64,
    pruned_s: f64,
}

/// Per-workload deterministic counters from one cold + one warm server
/// submission of the identical job. Gated by the trajectory check: the
/// warm run must hit the cross-run cache and execute at least 5x fewer
/// post-failure representatives.
#[derive(Serialize)]
struct ServerRow {
    workload: String,
    ops: u64,
    cold_post_runs: u64,
    warm_post_runs: u64,
    warm_cache_hits: u64,
    /// `cold_post_runs / warm_post_runs` (`inf` serialized as a large
    /// float when the warm run executed nothing).
    post_run_reduction: f64,
}

/// Campaign-server throughput: the job mix submitted twice through a live
/// `xfd serve` instance. Walls and jobs/second are host-dependent and
/// informational; `cache_hit_ratio` and the per-workload rows gate.
#[derive(Serialize)]
struct ServerSection {
    jobs_per_phase: usize,
    exec_workers: usize,
    cold_wall_s: f64,
    warm_wall_s: f64,
    cold_jobs_per_s: f64,
    warm_jobs_per_s: f64,
    /// Warm-phase cache hits over warm-phase failure points.
    cache_hit_ratio: f64,
    rows: Vec<ServerRow>,
}

#[derive(Serialize)]
struct Doc {
    bench: &'static str,
    workers: usize,
    reps: u32,
    host_cpus: usize,
    results: Vec<Row>,
    /// `--wall` multicore sweep; empty when the flag was not passed.
    scaling: Vec<ScalingRow>,
    ingest: Vec<IngestRow>,
    /// Persistence-domain sweep: deterministic detection and pruning
    /// counters per (workload, domain) cell.
    domains: Vec<DomainRow>,
    /// Campaign-server cold/warm throughput over the cross-run cache.
    server: ServerSection,
}

/// Best-of-`REPS` of `f` by wall-clock time.
fn best_of<T, F: FnMut() -> (Duration, T)>(mut f: F) -> (Duration, T) {
    (0..REPS)
        .map(|_| f())
        .min_by_key(|(d, _)| *d)
        .expect("REPS > 0")
}

/// One full decode pass; returns the entry count so the work cannot be
/// optimized away.
fn decode(bytes: &[u8]) -> u64 {
    let mut r = XftMmapReader::from_bytes(bytes).expect("xft header");
    while r.next_event().expect("xft event").is_some() {}
    std::hint::black_box(r.entries_read())
}

fn print_ingest(rows: &[IngestRow]) {
    println!("\nsingle-thread .xft ingest");
    println!(
        "{:<14} {:>9} {:>10} {:>14}",
        "workload", "entries", "xft[KiB]", "decode[e/s]"
    );
    for i in rows {
        println!(
            "{:<14} {:>9} {:>10.1} {:>14.0}",
            i.workload,
            i.entries,
            i.xft_bytes as f64 / 1024.0,
            i.entries_per_s,
        );
    }
}

/// Measures single-thread ingest of the recorded `kind` trace.
fn measure_ingest(kind: WorkloadKind, ops: u64) -> IngestRow {
    let cfg = XfConfig {
        record_trace: true,
        ..XfConfig::default()
    };
    let run = run_detection_with(kind, ops, cfg)
        .recorded
        .expect("trace recorded");
    let bytes = xfstream::encode_recorded_run(&run).expect("xft encoding");

    let entries = decode(&bytes);
    assert_eq!(entries, run.entry_count() as u64, "decoder lost entries");
    // Batch enough passes per sample that one pass is measurable.
    let passes = INGEST_TARGET_ENTRIES.div_ceil(entries.max(1)).max(1) as u32;
    let (best, ()) = best_of(|| {
        let start = Instant::now();
        for _ in 0..passes {
            decode(&bytes);
        }
        (start.elapsed(), ())
    });
    let decode_s = best.as_secs_f64() / f64::from(passes);
    IngestRow {
        workload: kind.to_string(),
        ops,
        entries,
        xft_bytes: bytes.len() as u64,
        passes,
        decode_s,
        entries_per_s: entries as f64 / decode_s.max(f64::MIN_POSITIVE),
    }
}

/// Sweeps each case across the three persistence-domain models, exhaustive
/// and pruned, recording the deterministic detection and pruning counters.
fn measure_domains(cases: &[(WorkloadKind, u64)]) -> Vec<DomainRow> {
    let domains = [
        ("adr", PersistDomain::Adr),
        ("eadr", PersistDomain::Eadr),
        ("cxl:4", PersistDomain::CxlGpf { reorder_window: 4 }),
    ];
    let mut rows = Vec::new();
    println!("\npersistence-domain sweep (deterministic counters, gated exactly)");
    println!(
        "{:<14} {:>6} {:>7} {:>6} {:>8} {:>7} {:>7} {:>6} {:>5} {:>9} {:>9}",
        "workload",
        "ops",
        "domain",
        "#fp",
        "classes",
        "pruned",
        "ratio",
        "races",
        "sem",
        "seq[s]",
        "prune[s]"
    );
    for &(kind, ops) in cases {
        for (name, domain) in domains {
            let (sequential, (failure_points, races, semantics)) = best_of(|| {
                let o = run_detection_with(
                    kind,
                    ops,
                    XfConfig {
                        domain,
                        ..XfConfig::default()
                    },
                );
                (
                    o.stats.total_time,
                    (
                        o.stats.failure_points,
                        o.report.race_count() as u64,
                        o.report.semantic_count() as u64,
                    ),
                )
            });
            let (pruned_wall, (classes_total, fps_pruned, pruning_ratio)) = best_of(|| {
                let o = run_detection_with(
                    kind,
                    ops,
                    XfConfig {
                        domain,
                        pruning: Pruning::Equivalence,
                        ..XfConfig::default()
                    },
                );
                (
                    o.stats.total_time,
                    (
                        o.stats.classes_total,
                        o.stats.fps_pruned,
                        o.stats.pruning_ratio,
                    ),
                )
            });
            println!(
                "{:<14} {:>6} {:>7} {:>6} {:>8} {:>7} {:>6.2}x {:>6} {:>5} {:>9} {:>9}",
                kind.to_string(),
                ops,
                name,
                failure_points,
                classes_total,
                fps_pruned,
                pruning_ratio,
                races,
                semantics,
                secs(sequential),
                secs(pruned_wall),
            );
            rows.push(DomainRow {
                workload: kind.to_string(),
                ops,
                domain: name.to_owned(),
                failure_points,
                classes_total,
                fps_pruned,
                pruning_ratio,
                race_findings: races,
                semantic_findings: semantics,
                sequential_s: sequential.as_secs_f64(),
                pruned_s: pruned_wall.as_secs_f64(),
            });
        }
    }
    rows
}

/// Pulls the first `"key":N` integer out of a JSON document (the vendored
/// serde has no value-level parser; the metrics schema stamps every
/// counter as a bare unsigned integer).
fn json_u64(json: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = json
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key} in metrics"));
    json[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("integer value")
}

/// Submits every spec in `mix` to the server sequentially and returns the
/// phase wall time plus each job's metrics JSON.
fn submit_phase(endpoint: &str, mix: &[xfdetector::JobSpec]) -> (Duration, Vec<String>) {
    let start = Instant::now();
    let metrics = mix
        .iter()
        .map(|spec| {
            let mut client =
                xfserve::Client::new(xfserve::AnyStream::connect_tcp(endpoint).expect("connect"));
            client.submit(spec, None).expect("submit");
            let mut m = None;
            client
                .stream_job(&mut |ev: &xfserve::JobEvent| {
                    if let xfserve::JobEvent::Metrics { json } = ev {
                        m = Some(json.clone());
                    }
                })
                .expect("stream");
            m.expect("metrics")
        })
        .collect();
    (start.elapsed(), metrics)
}

/// Measures campaign-server throughput: the job mix cold, then warm
/// against the populated cross-run cache.
fn measure_server(cases: &[(WorkloadKind, u64)]) -> ServerSection {
    const EXEC_WORKERS: usize = 2;
    let cache_dir = std::env::temp_dir().join(format!("xfd-perf-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    std::fs::create_dir_all(&cache_dir).expect("create cache dir");

    let server = xfserve::Server::bind_tcp(
        "127.0.0.1:0",
        xfserve::ServerOptions {
            exec_workers: EXEC_WORKERS,
            cache_dir: Some(cache_dir.clone()),
        },
    )
    .expect("bind server");
    let endpoint = server.local_endpoint().to_owned();
    let server_thread = std::thread::spawn(move || server.run());

    let mix: Vec<xfdetector::JobSpec> = cases
        .iter()
        .map(|(kind, ops)| xfdetector::JobSpec {
            workload: Some(kind.slug().to_owned()),
            ops: Some(*ops),
            mode: Some("parallel".to_owned()),
            pruning: Some("equivalence".to_owned()),
            ..xfdetector::JobSpec::default()
        })
        .collect();

    let (cold_wall, cold_metrics) = submit_phase(&endpoint, &mix);
    let (warm_wall, warm_metrics) = submit_phase(&endpoint, &mix);

    let mut stopper =
        xfserve::Client::new(xfserve::AnyStream::connect_tcp(&endpoint).expect("connect"));
    stopper.shutdown().expect("shutdown");
    server_thread
        .join()
        .expect("server thread")
        .expect("server run");
    let _ = std::fs::remove_dir_all(&cache_dir);

    let mut rows = Vec::new();
    let (mut warm_hits_total, mut warm_fps_total) = (0u64, 0u64);
    println!("\ncampaign server: cold vs warm over the cross-run class cache");
    println!(
        "{:<14} {:>6} {:>11} {:>11} {:>11} {:>10}",
        "workload", "ops", "cold posts", "warm posts", "warm hits", "reduction"
    );
    for (i, (kind, ops)) in cases.iter().enumerate() {
        let cold_post_runs = json_u64(&cold_metrics[i], "post_runs");
        let warm_post_runs = json_u64(&warm_metrics[i], "post_runs");
        let warm_cache_hits = json_u64(&warm_metrics[i], "cache_hits");
        warm_hits_total += warm_cache_hits;
        warm_fps_total += json_u64(&warm_metrics[i], "failure_points");
        let post_run_reduction = cold_post_runs as f64 / (warm_post_runs.max(1)) as f64;
        println!(
            "{:<14} {:>6} {:>11} {:>11} {:>11} {:>9.1}x",
            kind.to_string(),
            ops,
            cold_post_runs,
            warm_post_runs,
            warm_cache_hits,
            post_run_reduction,
        );
        rows.push(ServerRow {
            workload: kind.to_string(),
            ops: *ops,
            cold_post_runs,
            warm_post_runs,
            warm_cache_hits,
            post_run_reduction,
        });
    }

    let jobs = mix.len();
    let per_s = |d: Duration| jobs as f64 / d.as_secs_f64().max(f64::MIN_POSITIVE);
    let section = ServerSection {
        jobs_per_phase: jobs,
        exec_workers: EXEC_WORKERS,
        cold_wall_s: cold_wall.as_secs_f64(),
        warm_wall_s: warm_wall.as_secs_f64(),
        cold_jobs_per_s: per_s(cold_wall),
        warm_jobs_per_s: per_s(warm_wall),
        cache_hit_ratio: warm_hits_total as f64 / (warm_fps_total.max(1)) as f64,
        rows,
    };
    println!(
        "throughput: cold {:.2} jobs/s, warm {:.2} jobs/s, cache-hit ratio {:.2}",
        section.cold_jobs_per_s, section.warm_jobs_per_s, section.cache_hit_ratio
    );
    section
}

fn main() {
    let wall = std::env::args().any(|a| a == "--wall");
    // Measure only the ingest section and skip the BENCH_detector.json
    // rewrite: a fast mode for iterating on (and CI-gating) the readers.
    if std::env::args().any(|a| a == "--ingest-only") {
        print_ingest(&[measure_ingest(WorkloadKind::Btree, 100)]);
        return;
    }
    let cases = [
        (WorkloadKind::Btree, 100u64),
        (WorkloadKind::HashmapTx, 100),
        (WorkloadKind::Ctree, 100),
    ];
    let cfg = XfConfig::default();
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let pruned_cfg = XfConfig {
        pruning: Pruning::Equivalence,
        ..XfConfig::default()
    };

    println!("detector perf baseline ({WORKERS} workers, best of {REPS}, {host_cpus} host cpus)");
    println!(
        "{:<14} {:>6} {:>8} {:>9} {:>9} {:>9} {:>9} {:>8} {:>12} {:>11} {:>7}",
        "workload",
        "ops",
        "#fp",
        "seq[s]",
        "exec[s]",
        "par[s]",
        "pruned[s]",
        "prune",
        "shadow[KiB]",
        "trace[KiB]",
        "vs-json"
    );

    let mut rows = Vec::new();
    let mut scaling = Vec::new();
    for (kind, ops) in cases {
        let (sequential, (failure_points, exec_work)) = best_of(|| {
            let o = run_detection_with(kind, ops, cfg.clone());
            (
                o.stats.total_time,
                (o.stats.failure_points, o.stats.post_exec_time),
            )
        });
        let (parallel, (shadow_cloned, shadow_resident)) = best_of(|| {
            let o = run_parallel_detection(kind, ops, cfg.clone(), WORKERS);
            (
                o.stats.total_time,
                (o.stats.shadow_bytes_cloned, o.stats.shadow_resident_bytes),
            )
        });
        let (pruned_wall, (classes_total, fps_pruned, pruning_ratio)) = best_of(|| {
            let o = run_detection_with(kind, ops, pruned_cfg.clone());
            (
                o.stats.total_time,
                (
                    o.stats.classes_total,
                    o.stats.fps_pruned,
                    o.stats.pruning_ratio,
                ),
            )
        });

        let trace = trace_sizes(kind, ops);
        println!(
            "{:<14} {:>6} {:>8} {:>9} {:>9} {:>9} {:>9} {:>7.2}x {:>12.1} {:>11.1} {:>6.1}x",
            kind.to_string(),
            ops,
            failure_points,
            secs(sequential),
            secs(exec_work),
            secs(parallel),
            secs(pruned_wall),
            pruning_ratio,
            shadow_cloned as f64 / 1024.0,
            trace.xft_bytes as f64 / 1024.0,
            trace.ratio(),
        );
        rows.push(Row {
            workload: kind.to_string(),
            ops,
            workers: WORKERS,
            failure_points,
            sequential_s: sequential.as_secs_f64(),
            exec_work_s: exec_work.as_secs_f64(),
            parallel_wall_s: parallel.as_secs_f64(),
            pruned_s: pruned_wall.as_secs_f64(),
            classes_total,
            fps_pruned,
            pruning_ratio,
            shadow_bytes_cloned: shadow_cloned,
            shadow_resident_bytes: shadow_resident,
            trace_entries: trace.entries,
            trace_xft_bytes: trace.xft_bytes,
            trace_json_bytes: trace.json_bytes,
            trace_json_over_xft: trace.ratio(),
        });

        if wall {
            let seq_wall = sequential.as_secs_f64();
            for w in WALL_WORKERS {
                let (par_wall, ()) = best_of(|| {
                    let o = run_parallel_detection(kind, ops, cfg.clone(), w);
                    (o.stats.total_time, ())
                });
                let par_s = par_wall.as_secs_f64();
                scaling.push(ScalingRow {
                    workload: kind.to_string(),
                    ops,
                    workers: w,
                    sequential_wall_s: seq_wall,
                    parallel_wall_s: par_s,
                    speedup_wall: seq_wall / par_s.max(f64::MIN_POSITIVE),
                    speedup_method: "wall",
                });
            }
        }
    }

    if wall {
        println!("\nwall-clock scaling ({host_cpus} host cpus; gated only when >= 2)");
        println!(
            "{:<14} {:>8} {:>9} {:>9} {:>8}",
            "workload", "workers", "seq[s]", "wall[s]", "speedup"
        );
        for s in &scaling {
            println!(
                "{:<14} {:>8} {:>9.3} {:>9.3} {:>7.2}x",
                s.workload, s.workers, s.sequential_wall_s, s.parallel_wall_s, s.speedup_wall
            );
        }
    }

    let ingest = vec![measure_ingest(WorkloadKind::Btree, 100)];
    print_ingest(&ingest);
    // B-Tree covers the clean-everywhere trajectory; Hashmap-Atomic's
    // unhardened publish idiom makes the CXL reorder window visible on a
    // bug-free workload.
    let domains = measure_domains(&[
        (WorkloadKind::Btree, 100),
        (WorkloadKind::HashmapAtomic, 40),
    ]);
    let server = measure_server(&cases);

    let doc = Doc {
        bench: "detector",
        workers: WORKERS,
        reps: REPS,
        host_cpus,
        results: rows,
        scaling,
        ingest,
        domains,
        server,
    };
    let path = "BENCH_detector.json";
    std::fs::write(path, serde_json::to_string(&doc).expect("serialize") + "\n")
        .expect("write BENCH_detector.json");
    println!("\nwrote {path}");
}
