//! Outside-in benchmark of the XFDetector reproduction.
//!
//! ```text
//! cargo run --release --manifest-path xfbench/Cargo.toml -- \
//!     --workload <registry|pruned-stream|serve> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Drives the detector only through its public API and checks every verdict.
//! With `--trace 0` it measures the end-to-end metrics; with `--trace 1` it
//! makes the traced run that times the calls into each layer. Every metric
//! is printed on its own line with its unit; the last line of standard
//! output is one JSON object with the verdict tally and the metrics.
//! `xfbench/README.md` lists the workloads, the metrics and which
//! end-to-end metric each layer is expected to move.

mod inputs;
mod layers;
mod replica;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pmem::{PmCtx, PmPool};

use inputs::{Program, Rng, Tally};
use layers::Metrics;
use stats::{median, tail, Tail};

/// A metric's name and unit.
type Named = (&'static str, &'static str);

/// The end-to-end metrics, reported with tracing off.
const END_TO_END: [Named; 8] = [
    ("setup_s", "s"),
    ("verdict_p50_s", "s"),
    ("verdict_tail_s", "s"),
    ("fps_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics, reported by the traced run.
const PER_LAYER: [Named; 35] = [
    ("pmem.ctx.pre_s", "s"),
    ("pmem.ctx.untraced_s", "s"),
    ("pmem.ctx.entries", "count"),
    ("pmem.snapshot.capture_s", "s"),
    ("pmem.snapshot.captures", "count"),
    ("pmem.snapshot.bytes_copied", "bytes"),
    ("workloads.post.exec_s", "s"),
    ("workloads.post.runs", "count"),
    ("workloads.post.entries", "count"),
    ("core.shadow.apply_pre_s", "s"),
    ("core.shadow.fingerprint_s", "s"),
    ("core.shadow.check_s", "s"),
    ("core.shadow.bytes_cloned", "bytes"),
    ("core.prune.classes", "count"),
    ("core.prune.useful_ratio", "ratio"),
    ("core.engine.total_s", "s"),
    ("core.engine.post_exec_s", "s"),
    ("core.engine.check_s", "s"),
    ("core.engine.residual_s", "s"),
    ("xfstream.ring.transfer_s", "s"),
    ("xfstream.ring.parks", "count"),
    ("xfstream.ring.max_depth", "count"),
    ("xfstream.codec.encode_s", "s"),
    ("xfstream.codec.decode_s", "s"),
    ("xfstream.codec.bytes_per_entry", "bytes/entry"),
    ("xfrun.cache.cold_run_s", "s"),
    ("xfrun.cache.warm_run_s", "s"),
    ("xfrun.cache.file_bytes", "bytes"),
    ("xfrun.cache.hit_ratio", "ratio"),
    ("xfserve.accept_s", "s"),
    ("xfserve.queue_s", "s"),
    ("xfserve.run_s", "s"),
    ("xfserve.drain_s", "s"),
    ("xfserve.overhead_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Set-ups timed in a `serve` run, half before its closed loop and half
/// after; `setup_s` is their median.
const SETUP_REPS: usize = 11;

/// The in-process workloads time one more set-up after every this many
/// seconds of measured passes, so the median samples the whole run rather
/// than one moment of the host's speed.
const SETUP_EVERY_S: f64 = 3.0;

/// Passes drawn for the in-process workloads; a run cycles through them.
const PASSES: usize = 32;

/// Programs per traced pass that also go through the cache and server
/// probes.
const PROBE_SAMPLE: usize = 2;

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Registry,
    PrunedStream,
    Serve,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Registry => "registry",
            Workload::PrunedStream => "pruned-stream",
            Workload::Serve => "serve",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |flag: &str| flags.remove(flag).ok_or_else(|| format!("missing {flag}"));
    let workload = match take("--workload")?.as_str() {
        "registry" => Workload::Registry,
        "pruned-stream" => Workload::PrunedStream,
        "serve" => Workload::Serve,
        other => return Err(format!("unknown workload {other}")),
    };
    let seed = take("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match take("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_owned());
    }
    if let Some(flag) = flags.keys().next() {
        return Err(format!("unknown flag {flag}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What a run prints: its verdict tally, metrics and extra detail lines.
struct Report {
    tally: Tally,
    metrics: Metrics,
    notes: Vec<String>,
}

/// Builds every program of the set: its session (validated configuration),
/// its workload, its pool, and its `setup` stage.
fn build_programs(programs: &[Program]) {
    for p in programs {
        let _ = p.session();
        let w = p.workload();
        let mut ctx = PmCtx::new(PmPool::new(w.pool_size()).expect("allocate the pool"));
        w.setup(&mut ctx).expect("program setup");
        std::hint::black_box(ctx.trace().len());
    }
}

/// Wall times of the set-ups a run makes; `setup_s` is their median.
#[derive(Default)]
struct Setups(Vec<f64>);

impl Setups {
    /// Runs one set-up and records its wall time.
    fn time<T>(&mut self, once: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = once();
        self.0.push(t.elapsed().as_secs_f64());
        out
    }

    fn record(self, m: &mut Metrics, notes: &mut Vec<String>) {
        notes.push(format!("setup_s is the median of {} set-ups", self.0.len()));
        m.insert("setup_s", median(&self.0));
    }
}

/// The samples of one round of a closed loop: a pass of an in-process
/// workload, or the whole window of `serve`.
#[derive(Default)]
struct Round {
    verdicts: Vec<f64>,
    jobs: Vec<f64>,
    failure_points: u64,
    wall: f64,
}

/// The end-to-end metrics every workload reports. Medians and rates are
/// taken per round and reported as their median over the rounds, which
/// keeps a burst of host noise in a few rounds from moving them. Tails
/// pool every sample of the run.
fn end_to_end(m: &mut Metrics, notes: &mut Vec<String>, rounds: &[Round]) {
    let rounds: Vec<&Round> = rounds.iter().filter(|r| !r.jobs.is_empty()).collect();
    if rounds.is_empty() {
        return;
    }
    let over_rounds =
        |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>());
    let pooled = |f: &dyn Fn(&Round) -> &Vec<f64>| -> Vec<f64> {
        rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let v = tail(&pooled(&|r| &r.verdicts));
    let j = tail(&pooled(&|r| &r.jobs));
    m.insert("verdict_p50_s", over_rounds(&|r| median(&r.verdicts)));
    m.insert("verdict_tail_s", v.value);
    m.insert("job_p50_s", over_rounds(&|r| median(&r.jobs)));
    m.insert("job_tail_s", j.value);
    m.insert("jobs_per_s", over_rounds(&|r| r.jobs.len() as f64 / r.wall));
    m.insert(
        "fps_per_s",
        over_rounds(&|r| r.failure_points as f64 / r.wall),
    );
    let note =
        |name: &str, t: Tail| format!("{name} is p{} of {} samples", t.percentile, t.samples);
    notes.push(note("verdict_tail_s", v));
    notes.push(note("job_tail_s", j));
    notes.push(format!("{} rounds", rounds.len()));
}

/// Draws the programs the cache and server probes use in traced pass `pass`.
fn sample(programs: &[Program], seed: u64, pass: u64) -> Vec<Program> {
    let mut cands: Vec<Program> = layers::probe_candidates(programs)
        .into_iter()
        .cloned()
        .collect();
    let mut rng = Rng::new(seed ^ pass.wrapping_mul(0x9e37_79b9));
    rng.shuffle(&mut cands);
    cands.truncate(PROBE_SAMPLE);
    cands
}

/// `registry` and `pruned-stream`: detections in a closed loop, one at a
/// time, in whole passes. Each pass is drawn afresh from the seed, so a run
/// samples the workload's size and bug distribution rather than one draw.
fn in_process(args: &Args, dir: &Path, generate: fn(&mut Rng) -> Vec<Program>) -> Report {
    let build = || {
        let mut rng = Rng::new(args.seed);
        let passes: Vec<Vec<Program>> = (0..PASSES).map(|_| generate(&mut rng)).collect();
        passes.iter().for_each(|p| build_programs(p));
        passes
    };
    let mut setups = Setups::default();
    let passes = setups.time(build);
    let mut m = Metrics::new();
    let mut notes = vec![format!("{} programs per pass", passes[0].len())];
    let mut tally = Tally::default();
    let mut made = 0;
    if args.trace {
        let deadline = Duration::from_secs_f64(args.seconds);
        let start = Instant::now();
        let mut metrics = Vec::new();
        let mut last_spans = Vec::new();
        while made == 0 || start.elapsed() < deadline {
            let programs = &passes[made % PASSES];
            let sampled = sample(programs, args.seed, made as u64);
            let (pm, spans) = layers::pass(programs, &sampled, dir, true, &mut tally);
            metrics.push(pm);
            last_spans = spans;
            made += 1;
        }
        notes.push(format!("{made} traced passes"));
        notes.push(write_spans(args, &last_spans));
        m = layers::median_over(&metrics);
    } else {
        // The window counts measured passes only, not the set-ups between
        // them.
        let mut rounds: Vec<Round> = Vec::new();
        let mut measured = 0.0;
        while made == 0 || measured < args.seconds {
            if measured >= setups.0.len() as f64 * SETUP_EVERY_S {
                drop(setups.time(build));
            }
            let programs = &passes[made % PASSES];
            made += 1;
            let mut round = Round::default();
            let pass_start = Instant::now();
            for p in programs {
                let t0 = Instant::now();
                let session = p.session();
                let tv = Instant::now();
                let outcome = p.run_in(&session, p.mode);
                let verdict = tv.elapsed();
                let o = match outcome {
                    Ok(o) => o,
                    Err(e) => {
                        tally.check(false, || format!("run of {}: {e}", p.label()));
                        continue;
                    }
                };
                let json = serde_json::to_string(&o.report).expect("serialize a report");
                let job = t0.elapsed();
                std::hint::black_box(json);
                let ok = p.verdict_ok(&o.report, o.stats.budget_exceeded);
                tally.check(ok, || format!("verdict of {}", p.label()));
                if !ok {
                    continue;
                }
                round.verdicts.push(verdict.as_secs_f64());
                round.jobs.push(job.as_secs_f64());
                round.failure_points += o.stats.failure_points;
            }
            round.wall = pass_start.elapsed().as_secs_f64();
            measured += round.wall;
            rounds.push(round);
        }
        end_to_end(&mut m, &mut notes, &rounds);
    }
    setups.record(&mut m, &mut notes);
    Report {
        tally,
        metrics: m,
        notes,
    }
}

/// Whether a finished job was served warm from the class cache.
fn warm(t: &serve::JobTimes) -> Option<bool> {
    Some(serve::json_u64(t.metrics_json.as_deref()?, "cache_hits")? > 0)
}

/// `serve`: an in-process server and two clients in a closed loop.
fn serve_workload(args: &Args, dir: &Path) -> Report {
    let server_dir = dir.join("server");
    let start = || (serve::start_server(&server_dir), serve::Mix::new(args.seed));
    let mut setups = Setups::default();
    for _ in 1..SETUP_REPS.div_ceil(2) {
        setups.time(start).0.stop();
    }
    let (server, mix) = setups.time(start);
    let (jobs, window) = serve::closed_loop(&mix, &server.endpoint, args.seconds);
    server.stop();
    while setups.0.len() < SETUP_REPS {
        setups.time(start).0.stop();
    }
    let (mut tally, oks) = serve::verify(&mix, &jobs);
    let mut notes = Vec::new();
    let done: Vec<_> = jobs
        .iter()
        .zip(oks)
        .filter(|(_, ok)| *ok)
        .map(|((job, t), _)| (*job, t))
        .collect();
    notes.push(format!(
        "{} jobs: {} warm, {} uploads",
        done.len(),
        done.iter().filter(|(_, t)| warm(t) == Some(true)).count(),
        done.iter()
            .filter(|(j, _)| matches!(j, serve::Job::Upload(_)))
            .count()
    ));
    let mut m = Metrics::new();
    if args.trace {
        spans::set_enabled(true);
        for (_, t) in &done {
            layers::job_spans(t);
        }
        spans::set_enabled(false);
        let job_spans = spans::take();
        // In-process cold and warm runs of every distinct spec the loop
        // used, for the cache metrics and the server's overhead.
        let mut used: Vec<usize> = done
            .iter()
            .filter_map(|(j, _)| match j {
                serve::Job::Spec(i) => Some(*i),
                serve::Job::Upload(_) => None,
            })
            .collect();
        used.sort_unstable();
        used.dedup();
        let pairs: Vec<_> = used
            .iter()
            .map(|&i| (mix.specs[i].clone(), mix.programs[i].clone()))
            .collect();
        let local = layers::probe_cache(&pairs, &dir.join("cache-probe"), &mut tally, &mut m);
        let overheads: Vec<f64> = done
            .iter()
            .filter_map(|(j, t)| {
                let serve::Job::Spec(i) = j else { return None };
                let l = local[used.binary_search(i).ok()?].as_ref()?;
                let inproc = if warm(t)? { l.warm_s } else { l.cold_s };
                Some(t.latency()?.as_secs_f64() - inproc)
            })
            .collect();
        layers::serve_metrics(&job_spans, &overheads, &mut m);
        let programs: Vec<Program> = pairs.into_iter().map(|(_, p)| p).collect();
        let (pm, spans) = layers::pass(&programs, &[], dir, false, &mut tally);
        for (k, v) in pm {
            m.entry(k).or_insert(v);
        }
        notes.push(write_spans(args, &spans));
    } else {
        let round = Round {
            verdicts: done
                .iter()
                .filter_map(|(_, t)| Some(t.report?.duration_since(t.submit).as_secs_f64()))
                .collect(),
            jobs: done
                .iter()
                .filter_map(|(_, t)| Some(t.latency()?.as_secs_f64()))
                .collect(),
            failure_points: done.iter().map(|(j, t)| mix.failure_points(*j, t)).sum(),
            wall: window.as_secs_f64(),
        };
        end_to_end(&mut m, &mut notes, &[round]);
    }
    setups.record(&mut m, &mut notes);
    Report {
        tally,
        metrics: m,
        notes,
    }
}

/// Writes the spans of the run's last traced pass; returns a note naming
/// the file.
fn write_spans(args: &Args, spans: &[spans::Span]) -> String {
    let path =
        PathBuf::from(".bench_build").join(format!("xfbench-spans-{}.json", args.workload.name()));
    match std::fs::write(&path, spans::to_json(spans)) {
        Ok(()) => format!("{} spans written to {}", spans.len(), path.display()),
        Err(e) => format!("spans not written: {e}"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "xfbench: {e}\nusage: xfbench --workload <registry|pruned-stream|serve> \
                 --seed N --seconds S --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    spans::start_clock();
    let dir = PathBuf::from(".bench_build")
        .join("xfbench-run")
        .join(format!("{}-{}", args.workload.name(), std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the run directory");
    let mut report = match args.workload {
        Workload::Registry => in_process(&args, &dir, inputs::registry),
        Workload::PrunedStream => in_process(&args, &dir, inputs::pruned_stream),
        Workload::Serve => serve_workload(&args, &dir),
    };
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(rss) = stats::peak_rss_mib() {
        report.metrics.insert("peak_rss_mib", rss);
    }

    println!(
        "xfbench {} seed {} ({} s, trace {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &report.notes {
        println!("  {note}");
    }
    let t = &report.tally;
    println!(
        "  verdicts: {} attempted, {} failed, failed_frac {}",
        t.attempted,
        t.failed,
        t.failed_frac()
    );
    for f in &t.failures {
        println!("  failed: {f}");
    }
    let names: &[Named] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let value = |name: &str| {
        let v = report.metrics.get(name).copied().unwrap_or(0.0);
        assert!(v.is_finite(), "{name} is not finite");
        v
    };
    let mut json = Vec::new();
    for (name, unit) in names {
        let v = value(name);
        println!("  {name} = {v} {unit}");
        json.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
    }
    if args.trace {
        // Printed but not scored: the stall can read exactly 0 on
        // `registry`, whose small programs rarely fill the ring.
        println!(
            "  xfstream.ring.stall_s = {} s",
            value("xfstream.ring.stall_s")
        );
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        t.failed == 0 && t.attempted > 0,
        t.attempted.max(1),
        t.failed,
        json.join(",")
    );
    ExitCode::SUCCESS
}
