//! The traced run: per-layer metrics from timed calls into each layer's
//! public functions, made from the benchmark's own code.
//!
//! Time metrics are seconds summed over one pass of the workload's programs
//! unless a name says otherwise; counts are per pass. A run makes whole
//! passes until its time is up and reports each metric's median over them.

use std::collections::BTreeMap;
use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

use pmem::{PmCtx, PmPool};
use xfdetector::{JobSpec, Mode, Pruning};
use xftrace::TraceEntry;

use crate::inputs::{Program, Tally};
use crate::replica;
use crate::serve::{self, JobTimes};
use crate::spans::{self, Span};
use crate::stats::median;

/// One pass's metrics by name.
pub type Metrics = BTreeMap<&'static str, f64>;

fn add(m: &mut Metrics, name: &'static str, v: f64) {
    *m.entry(name).or_insert(0.0) += v;
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// `pmem.ctx`: `setup` plus `pre_failure` with no hook, traced and
/// untraced. Returns the traced run's entries.
fn probe_ctx(p: &Program, m: &mut Metrics) -> Result<Vec<TraceEntry>, String> {
    let mut entries = Vec::new();
    for tracing in [true, false] {
        let w = p.workload();
        let mut ctx = PmCtx::new(PmPool::new(w.pool_size()).map_err(|e| e.to_string())?);
        ctx.set_tracing(tracing);
        let t = Instant::now();
        w.setup(&mut ctx).map_err(|e| e.to_string())?;
        w.pre_failure(&mut ctx).map_err(|e| e.to_string())?;
        let took = secs(t.elapsed());
        if tracing {
            add(m, "pmem.ctx.pre_s", took);
            entries = ctx.trace().drain();
            add(m, "pmem.ctx.entries", entries.len() as f64);
        } else {
            add(m, "pmem.ctx.untraced_s", took);
        }
    }
    Ok(entries)
}

/// `xfstream.ring`: the recorded traces, in batches, through
/// `xfstream::channel` from this thread to a consumer thread.
fn probe_ring(traces: &[Vec<TraceEntry>], m: &mut Metrics) {
    const BATCH: usize = 256;
    const CAPACITY: usize = 64;
    let batches: Vec<Vec<TraceEntry>> = traces
        .iter()
        .flat_map(|t| t.chunks(BATCH).map(<[TraceEntry]>::to_vec))
        .collect();
    let sent: usize = batches.iter().map(Vec::len).sum();
    let start = Instant::now();
    let (tx, rx) = xfstream::channel::<Vec<TraceEntry>>(CAPACITY);
    let received = thread::scope(|s| {
        let consumer = s.spawn(move || {
            let mut n = 0;
            let mut buf = Vec::new();
            while rx.recv_batch(&mut buf, 32) {
                n += buf.drain(..).map(|b| b.len()).sum::<usize>();
            }
            n
        });
        for b in batches {
            tx.send(b).expect("the consumer outlives the producer");
        }
        drop(tx);
        consumer.join().expect("ring consumer")
    });
    add(m, "xfstream.ring.transfer_s", secs(start.elapsed()));
    assert_eq!(received, sent, "the ring lost entries");
}

/// The outside-in detection of every program, once with spans on and once
/// with them off, each timed around the whole run. The order alternates
/// from program to program, so warm caches favour neither pass.
/// `trace.overhead_s` is the traced pass's wall time minus the untraced one.
fn probe_replica(programs: &[Program], tally: &mut Tally, m: &mut Metrics) -> Vec<Span> {
    let (mut traced, mut untraced) = (0.0, 0.0);
    for (i, p) in programs.iter().enumerate() {
        spans::set_group(i as u64);
        let order = if i % 2 == 0 { [true, false] } else { [false, true] };
        for on in order {
            spans::set_enabled(on);
            let t = Instant::now();
            let run = replica::run(p);
            let took = secs(t.elapsed());
            spans::set_enabled(false);
            if !on {
                untraced += took;
                continue;
            }
            traced += took;
            match run {
                Ok(r) => {
                    tally.check(p.verdict_ok(&r.report, r.counts.budget_kills), || {
                        format!("outside-in verdict of {}", p.label())
                    });
                    let c = &r.counts;
                    add(m, "pmem.snapshot.captures", c.captures as f64);
                    add(m, "pmem.snapshot.bytes_copied", c.bytes_copied as f64);
                    add(m, "workloads.post.runs", c.post_runs as f64);
                    add(m, "workloads.post.entries", c.post_entries as f64);
                    add(m, "replica.failure_points", c.failure_points as f64);
                    if p.pruning.is_enabled() {
                        add(m, "core.prune.classes", c.classes as f64);
                    }
                }
                Err(e) => tally.check(false, || format!("outside-in run of {}: {e}", p.label())),
            }
        }
    }
    add(m, "trace.overhead_s", traced - untraced);
    let spans = spans::take();
    let by_name = spans::self_seconds_by_name(&spans);
    let self_of = |name| by_name.get(name).copied().unwrap_or(0.0);
    for (metric, span) in [
        ("pmem.snapshot.capture_s", "pmem.snapshot.capture"),
        ("workloads.post.exec_s", "workloads.post.exec"),
        ("core.shadow.apply_pre_s", "core.shadow.apply_pre"),
        ("core.shadow.fingerprint_s", "core.shadow.fingerprint"),
        ("core.shadow.check_s", "core.shadow.check"),
    ] {
        add(m, metric, self_of(span));
    }
    add(
        m,
        "core.engine.residual_s",
        self_of("core.engine") + self_of("core.engine.hook"),
    );
    spans
}

/// `core.shadow.fingerprint_s` and `core.prune` for programs detected with
/// pruning off (`registry`), where the engine never fingerprints: a separate
/// outside-in pass with equivalence pruning, whose spans stay out of every
/// other layer's figures.
fn probe_prune(programs: &[Program], m: &mut Metrics) {
    spans::set_enabled(true);
    for p in programs.iter().filter(|p| !p.pruning.is_enabled()) {
        let pruned = Program {
            pruning: Pruning::Equivalence,
            ..p.clone()
        };
        if let Ok(r) = replica::run(&pruned) {
            add(m, "core.prune.classes", r.counts.classes as f64);
        }
    }
    spans::set_enabled(false);
    let by_name = spans::self_seconds_by_name(&spans::take());
    if let Some(t) = by_name.get("core.shadow.fingerprint") {
        add(m, "core.shadow.fingerprint_s", *t);
    }
}

/// Production runs: `core.engine` from each run's `RunStats`, the ring's
/// stall, parks and depth from stream runs, and `xfstream.codec` on each
/// program's recorded run.
fn probe_engine(programs: &[Program], tally: &mut Tally, m: &mut Metrics) {
    for p in programs {
        let session = p.session();
        let o = match p.run_in(&session, p.mode) {
            Ok(o) => o,
            Err(e) => {
                tally.check(false, || format!("run of {}: {e}", p.label()));
                continue;
            }
        };
        tally.check(p.verdict_ok(&o.report, o.stats.budget_exceeded), || {
            format!("verdict of {}", p.label())
        });
        add(m, "core.engine.total_s", secs(o.stats.total_time));
        add(m, "core.engine.post_exec_s", secs(o.stats.post_exec_time));
        add(m, "core.engine.check_s", secs(o.stats.check_time));
        add(
            m,
            "core.shadow.bytes_cloned",
            o.stats.shadow_bytes_cloned as f64,
        );
        let stream = if p.mode == Mode::Stream {
            Some(o.stats)
        } else {
            p.run_in(&session, Mode::Stream).ok().map(|o| o.stats)
        };
        if let Some(s) = stream {
            add(m, "xfstream.ring.stall_s", secs(s.stream_stall_time));
            add(m, "xfstream.ring.parks", s.ring_parks as f64);
            let depth = m.entry("xfstream.ring.max_depth").or_insert(0.0);
            *depth = depth.max(s.stream_max_depth as f64);
        }

        let recording = xfstream::session()
            .config(p.config())
            .record_repro(true)
            .build()
            .expect("recording configuration is valid");
        let Some(run) = p
            .run_in(&recording, Mode::Batch)
            .ok()
            .and_then(|o| o.recorded)
        else {
            continue;
        };
        let t = Instant::now();
        let bytes = xfstream::encode_recorded_run(&run).expect("encode a recorded run");
        add(m, "xfstream.codec.encode_s", secs(t.elapsed()));
        add(m, "codec.bytes", bytes.len() as f64);
        let t = Instant::now();
        let mut reader = xfstream::XftMmapReader::from_bytes(bytes).expect("decode the header");
        while reader.next_event().expect("decode an event").is_some() {}
        add(m, "xfstream.codec.decode_s", secs(t.elapsed()));
        add(m, "codec.entries", reader.entries_read() as f64);
    }
}

/// In-process cold and warm runs of a spec with a class cache and no
/// progress tap.
pub struct CacheRun {
    pub cold_s: f64,
    pub warm_s: f64,
    pub report: String,
}

/// `xfrun.cache` for each `(spec, program)`: a cold run writing a fresh
/// cache file, then a warm run reading it.
pub fn probe_cache(
    jobs: &[(JobSpec, Program)],
    dir: &Path,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Vec<Option<CacheRun>> {
    std::fs::create_dir_all(dir).expect("create the cache probe directory");
    let (mut hits, mut fps) = (0u64, 0u64);
    let runs = jobs
        .iter()
        .enumerate()
        .map(|(i, (spec, program))| {
            let file = dir.join(format!("probe-{i}.xfc"));
            let _ = std::fs::remove_file(&file);
            let cached = JobSpec {
                class_cache: Some(file.to_string_lossy().into_owned()),
                cache_digest: Some(spec.digest()),
                ..spec.clone()
            };
            let timed = || -> Option<(f64, xfdetector::RunOutcome)> {
                let session = cached.apply(xfstream::session()).ok()?.build().ok()?;
                let t = Instant::now();
                let o = program.run_in(&session, cached.mode().ok()?).ok()?;
                Some((secs(t.elapsed()), o))
            };
            let (Some((cold_s, cold)), Some((warm_s, warm))) = (timed(), timed()) else {
                tally.check(false, || format!("cached run of {}", program.label()));
                return None;
            };
            let report = serde_json::to_string(&cold.report).expect("serialize a report");
            let same = serde_json::to_string(&warm.report).expect("serialize a report") == report;
            tally.check(same, || format!("warm report of {}", program.label()));
            add(m, "xfrun.cache.cold_run_s", cold_s);
            add(m, "xfrun.cache.warm_run_s", warm_s);
            let bytes = std::fs::metadata(&file).map_or(0, |f| f.len());
            add(m, "xfrun.cache.file_bytes", bytes as f64);
            hits += warm.stats.cache_hits;
            fps += warm.stats.failure_points;
            let _ = std::fs::remove_file(&file);
            Some(CacheRun {
                cold_s,
                warm_s,
                report,
            })
        })
        .collect();
    if fps > 0 {
        add(m, "xfrun.cache.hit_ratio", hits as f64 / fps as f64);
    }
    runs
}

/// `xfserve` spans of one job from its client-side timestamps, under a root
/// span `xfserve.job`. Jobs without a PROGRESS frame (trace uploads) have no
/// queue or run span.
pub fn job_spans(t: &JobTimes) {
    let (Some(accepted), Some(report), Some(done)) = (t.accepted, t.report, t.done) else {
        return;
    };
    let root = spans::record("xfserve.job", t.submit, done, None);
    spans::record("xfserve.accept", t.submit, accepted, Some(root));
    if let Some(progress) = t.progress {
        spans::record("xfserve.queue", accepted, progress, Some(root));
        spans::record("xfserve.run", progress, report, Some(root));
    }
    spans::record("xfserve.drain", report, done, Some(root));
}

/// Per-job medians of the `xfserve` spans, and of `overheads`, each a job's
/// latency minus the in-process run time of the same spec at the same cache
/// temperature (`xfserve.overhead_s`).
pub fn serve_metrics(spans: &[Span], overheads: &[f64], m: &mut Metrics) {
    for (metric, name) in [
        ("xfserve.accept_s", "xfserve.accept"),
        ("xfserve.queue_s", "xfserve.queue"),
        ("xfserve.run_s", "xfserve.run"),
        ("xfserve.drain_s", "xfserve.drain"),
    ] {
        let d: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect();
        if !d.is_empty() {
            m.insert(metric, median(&d));
        }
    }
    if !overheads.is_empty() {
        m.insert("xfserve.overhead_s", median(overheads));
    }
}

/// Submits each sampled spec to a fresh in-process server twice, cold then
/// warm, and derives the `xfserve` metrics against the cache probe's
/// in-process times.
fn probe_server(
    jobs: &[(JobSpec, Program)],
    local: &[Option<CacheRun>],
    dir: &Path,
    tally: &mut Tally,
    m: &mut Metrics,
) {
    let server = serve::start_server(dir);
    let mut overheads = Vec::new();
    spans::set_enabled(true);
    for ((spec, program), local) in jobs.iter().zip(local) {
        for warm in [false, true] {
            let t = serve::submit(&server.endpoint, spec, None);
            let ok = t.error.is_none()
                && t.exit_code == Some(0)
                && matches!((local, &t.report_json), (Some(l), Some(r)) if &l.report == r);
            tally.check(ok, || {
                format!("server job of {}: {:?}", program.label(), t.error)
            });
            job_spans(&t);
            if let (Some(l), Some(latency)) = (local, t.latency()) {
                let inproc = if warm { l.warm_s } else { l.cold_s };
                overheads.push(secs(latency) - inproc);
            }
        }
    }
    spans::set_enabled(false);
    server.stop();
    serve_metrics(&spans::take(), &overheads, m);
}

/// Derived ratios of a finished pass.
fn finish(m: &mut Metrics) {
    let fps = m.remove("replica.failure_points").unwrap_or(0.0);
    let classes = m.get("core.prune.classes").copied().unwrap_or(0.0);
    m.insert(
        "core.prune.useful_ratio",
        if fps > 0.0 { classes / fps } else { 0.0 },
    );
    let bytes = m.remove("codec.bytes").unwrap_or(0.0);
    let entries = m.remove("codec.entries").unwrap_or(0.0);
    m.insert(
        "xfstream.codec.bytes_per_entry",
        if entries > 0.0 { bytes / entries } else { 0.0 },
    );
}

/// Programs the cache and server probes may sample: no budget, since a
/// budget kill ends a server job with a non-zero exit code.
pub fn probe_candidates(programs: &[Program]) -> Vec<&Program> {
    programs
        .iter()
        .filter(|p| p.config().post_budget.is_none())
        .collect()
}

/// One traced pass over `programs`. `sampled` programs also go through the
/// cache probe and, when `server` is set, an in-process server. Returns the
/// pass's metrics and its detection spans.
pub fn pass(
    programs: &[Program],
    sampled: &[Program],
    dir: &Path,
    server: bool,
    tally: &mut Tally,
) -> (Metrics, Vec<Span>) {
    let mut m = Metrics::new();
    let mut traces = Vec::new();
    for p in programs {
        match probe_ctx(p, &mut m) {
            Ok(t) => traces.push(t),
            Err(e) => tally.check(false, || format!("pre-failure run of {}: {e}", p.label())),
        }
    }
    probe_ring(&traces, &mut m);
    let spans = probe_replica(programs, tally, &mut m);
    probe_prune(programs, &mut m);
    probe_engine(programs, tally, &mut m);
    let jobs: Vec<(JobSpec, Program)> = sampled.iter().map(|p| (p.job_spec(), p.clone())).collect();
    let local = probe_cache(&jobs, &dir.join("cache-probe"), tally, &mut m);
    if server {
        probe_server(&jobs, &local, &dir.join("server-probe"), tally, &mut m);
    }
    finish(&mut m);
    (m, spans)
}

/// Each metric's median over the passes that reported it.
pub fn median_over(passes: &[Metrics]) -> Metrics {
    let mut names: Vec<&'static str> = passes.iter().flat_map(|m| m.keys().copied()).collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|n| {
            let v: Vec<f64> = passes.iter().filter_map(|m| m.get(n).copied()).collect();
            (n, median(&v))
        })
        .collect()
}
