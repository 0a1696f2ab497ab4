//! `xfd` — the command-line driver of the XFDetector reproduction.
//!
//! The subcommands tie the workload registry, the detection engine and the
//! `.xft` streaming trace codec together:
//!
//! - `xfd record`  — run pipelined detection on a workload and persist the
//!   recorded trace as a compact `.xft` file (plus optional JSON forms),
//! - `xfd analyze` — replay a `.xft` trace through the offline detection
//!   backend (§5.5: the backend is independent of the frontend),
//! - `xfd report`  — run live detection (batch, streaming-pipelined or
//!   parallel) and print the findings,
//! - `xfd fuzz`    — run a seeded differential fuzzing campaign: random PM
//!   programs through all three engines plus the model-checking oracle,
//!   shrinking any divergence to a minimal repro,
//! - `xfd serve`   — long-running campaign server: accepts detection jobs
//!   over a socket, shards them across a worker pool and streams findings
//!   back, with a cross-run post-trace store deduplicating repeat campaigns,
//! - `xfd submit`  — send a job to a running server and stream its results,
//! - `xfd watch`   — re-attach to a submitted job's event stream,
//! - `xfd info`    — inspect a `.xft` trace, or list workloads and bugs.
//!
//! Every workload-running subcommand builds from one serializable
//! [`JobSpec`]: `--job job.json` seeds the spec, and individual flags
//! override its fields. Errors are typed ([`XfError`]/`ConfigError`), so
//! the CLI exit codes and the server's REJECTED frames agree: exit 1 for
//! configuration rejections, 2 for runtime failures, 3 for findings.
//!
//! Run `xfd --help` for the full flag reference.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::fs;
use std::io::{self, BufWriter};
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use serde::Serialize;
use xfd::workloads::bugs::{BugId, BugSet, WorkloadKind};
use xfd::workloads::{build_concurrent, build_with_init, validation_ops};
use xfd::xfdetector::jobspec::{parse_domain, parse_mode, parse_pruning, parse_schedule};
use xfd::xfdetector::offline::{self, PruningCensus};
use xfd::xfdetector::{
    BugKind, ConfigError, DetectionReport, JobSpec, Mode, Progress, RunOutcome, RunStats, Session,
    XfError,
};
use xfd::xffuzz::{self, ConcurrentFuzzProgram, DiffConfig, FuzzProgram, FuzzSource};
use xfd::xfstream::{self, XftMmapReader};

const USAGE: &str = "\
xfd — cross-failure bug detection for persistent-memory programs

USAGE:
    xfd record  --workload <name> [--ops N] [--init N] [--bug ID]...
                [--out FILE.xft] [--json-trace FILE.json] [--report FILE.json]
                [--capacity N] [--threads N] [--schedule SPEC] [CONFIG FLAGS]
    xfd analyze <FILE.xft> [--all-reads] [--pruning MODE] [--json]
                [--out FILE.json]
    xfd report  --workload <name> [--ops N] [--init N] [--bug ID]...
                [--mode batch|stream|parallel] [--workers N] [--capacity N]
                [--threads N] [--schedule SPEC] [--json] [--report FILE.json]
                [CONFIG FLAGS]
    xfd fuzz    [--seed N] [--iters N] [--max-ops N] [--no-shrink]
                [--corpus-dir DIR] [--budget-entries N] [--threads N]
                [--domain MODEL] [--replay FILE.fuzz] [--progress] [--json]
    xfd serve   [--addr HOST:PORT | --socket PATH] [--exec-workers N]
                [--cache-dir DIR]
    xfd submit  [--addr HOST:PORT | --socket PATH] (--job FILE.json |
                --workload <name> [FLAGS]) [--artifact FILE.xft|FILE.fuzz]
                [--no-wait]
    xfd watch   [--addr HOST:PORT | --socket PATH] JOBID
    xfd stop    [--addr HOST:PORT | --socket PATH]
    xfd info    [FILE.xft]

SUBCOMMANDS:
    record     Run pipelined detection and persist the trace as .xft
    analyze    Replay a .xft trace through the offline detection backend
    report     Run live detection and print the findings
    fuzz       Differential fuzzing: generated programs vs the oracle
    serve      Campaign server: sharded detection jobs with a cross-run cache
    submit     Send a job to a running server and stream its results
    watch      Re-attach to a submitted job's event stream
    stop       Ask a running server to shut down cleanly
    info       Inspect a .xft trace; with no argument, list workloads & bugs

JOB FILES (all workload-running subcommands and the server):
    --job FILE.json       Load a serialized JobSpec; any flag given alongside
                          overrides the corresponding field. The same JSON
                          document is what `xfd submit` sends to the server.

FUZZ OPTIONS:
    --seed N              Campaign seed (default 1); same seed => same
                          programs, same reports, same campaign digest
    --iters N             Programs to generate and check (default 100)
    --max-ops N           Maximum ops per generated program (default 32)
    --no-shrink           Skip delta-debugging diverging programs
    --corpus-dir DIR      Write repro bundles (program.fuzz, minimized.fuzz,
                          repro.xft, divergence.txt) under DIR on divergence
    --budget-entries N    Post-failure trace-entry watchdog (default 100000)
    --pruning MODE        Run all three engines under the given pruning
                          policy; engine equivalence must hold in lockstep
    --threads N           Above 1: generate concurrent programs and run
                          them multi-threaded through every engine
    --domain MODEL        Run the campaign under this persistence domain;
                          sequential programs are additionally cross-checked
                          against the oracle under all three domains
    --replay FILE.fuzz    Re-check one saved program instead of a campaign
                          (sequential `xffuzz v1` or concurrent `xffuzz c1`)
    Exit status: 3 if any divergence was found, 2 on infrastructure errors

SERVER OPTIONS (serve / submit / watch / stop):
    --addr HOST:PORT      TCP endpoint (default 127.0.0.1:7611)
    --socket PATH         Unix-domain socket endpoint (unix only)
    --exec-workers N      Concurrent job executors (serve; default 2)
    --cache-dir DIR       Post-trace store directory (serve): a repeat job
                          replays the failure points an earlier one checked
    --artifact FILE       Upload a .xft trace or .fuzz program with the job
    --no-wait             Submit without streaming results (print job id)

COMMON OPTIONS:
    --workload <name>     One of: btree, ctree, rbtree, hashmap_tx,
                          hashmap_atomic, memcached, redis, treiber_stack,
                          ms_queue
    --ops N               Pre-failure operations (default: per-workload size
                          at which every registered bug fires)
    --init N              Pre-population operations during setup (default 0)
    --bug ID              Inject a registered bug (repeatable; see `xfd info`)
    --json                Print the report as JSON on stdout
    --fail-on-bugs        Exit with status 3 if correctness bugs were found
                          (budget overruns always exit 3)

CONCURRENCY OPTIONS (record & report; concurrent workloads only):
    --threads N           Logical threads for the concurrent workloads
                          (treiber_stack, ms_queue); the pre-failure stage
                          interleaves N thread programs deterministically
    --schedule SPEC       rr | seed:N | exhaustive:K — the interleaving(s)
                          explored: strict round-robin (default), one
                          seeded pseudo-random schedule, or every schedule
                          fixing the first K picks

SESSION OPTIONS (fault-tolerant orchestration; record & report):
    --budget-ms N         Kill post-failure runs after N ms of wall time and
                          report them as budget-exceeded findings
    --budget-entries N    Kill post-failure runs after N trace entries
    --journal FILE.xfj    Write a fresh post-trace store (replaces FILE):
                          each checked failure point's post-failure trace
                          is appended as the run goes, so it can resume
    --resume FILE.xfj     Resume a killed run from its post-trace store:
                          stored failure points replay their traces
                          instead of executing, new ones are appended; a
                          torn or foreign header is an error (exit 2)
    --metrics-out FILE    Write machine-readable run metrics JSON
    --repro-dir DIR       Export failing failure points (panics, budget
                          kills) as standalone .xft repro traces under DIR
    --class-cache FILE    Open FILE as a cross-run post-trace store: a
                          repeat run replays the stored traces instead of
                          executing (any --pruning; a stale file starts
                          cold; reports stay byte-identical). --journal,
                          --resume and --class-cache are exclusive
    --cache-digest STR    Program digest in the store header (defaults to
                          a digest of the job's source fields)
    --progress            Live progress line on stderr (fps done/total,
                          dedup hit rate, ETA)

CONFIG FLAGS (detector axes; defaults reproduce the paper's setup):
    --all-reads           Check every post-failure read, not just the first
                          per location (disables §5.4 optimization 1)
    --no-skip-empty       Keep failure points at ordering points without PM
                          activity (disables §5.4 optimization 2)
    --no-completion-fp    No failure point after the last operation
    --max-failure-points N  Stop injecting failures after N failure points
    --fire-on-every-write Failure point before every PM store (ablation)
    --no-dedup            Re-execute post-failure runs on identical images
    --pruning MODE        off | equivalence — collapse failure points into
                          persistence-state equivalence classes and run one
                          representative post-failure execution per class
                          (reports stay byte-identical). With `analyze`,
                          also prints the trace's equivalence-class census
    --domain MODEL        adr | eadr | cxl:WINDOW — the platform persistence
                          domain findings are classified under (default adr).
                          eadr treats dirty cache lines as persisted at the
                          crash; cxl:WINDOW also ages persisted stores
                          through a WINDOW-fence device reorder buffer.
                          Recorded traces carry the domain in the .xft
                          header and `xfd analyze` replays under it
    --seed N              RNG seed for randomized crash policies
    --capacity N          Trace-FIFO capacity in messages (stream mode;
                          default 1024)
    --workers N           Worker threads (parallel mode; 0 = all cores)

EXIT CODES (CLI; the server's REJECTED frames carry the same error codes):
    0   clean run, no gated findings
    1   configuration rejected (bad flag/field value, conflict, unknown name)
    2   runtime failure (I/O, journal, codec, engine)
    3   findings: budget overruns, --fail-on-bugs hits, fuzz divergences
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("xfd: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, XfError> {
    let Some(cmd) = args.first() else {
        eprint!("{USAGE}");
        return Ok(ExitCode::from(1));
    };
    match cmd.as_str() {
        "-h" | "--help" | "help" => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        "record" => cmd_record(&args[1..]),
        "analyze" => cmd_analyze(&args[1..]),
        "report" => cmd_report(&args[1..]),
        "fuzz" => cmd_fuzz(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "submit" => cmd_submit(&args[1..]),
        "watch" => cmd_watch(&args[1..]),
        "stop" => cmd_stop(&args[1..]),
        "info" => cmd_info(&args[1..]),
        other => Err(ConfigError::Unknown {
            what: "subcommand",
            value: other.to_owned(),
        }
        .into()),
    }
}

/// Attaches the offending path to an I/O error (the bare error has no idea
/// which file it came from).
fn io_at(path: &str, e: io::Error) -> XfError {
    XfError::Io(io::Error::new(e.kind(), format!("{path}: {e}")))
}

/// Wraps a codec-layer failure with the file it occurred on.
fn codec_at(path: &str, e: impl std::fmt::Display) -> XfError {
    XfError::Codec(format!("{path}: {e}"))
}

fn json_err(e: impl std::fmt::Display) -> XfError {
    XfError::Codec(e.to_string())
}

/// Loads a [`JobSpec`] from a `--job` file.
fn load_job(path: &str) -> Result<JobSpec, XfError> {
    let text = fs::read_to_string(path).map_err(|e| io_at(path, e))?;
    Ok(JobSpec::from_json(&text)?)
}

/// Options shared by the workload-running subcommands: the serializable
/// job plus CLI-only presentation knobs.
#[derive(Debug, Default)]
struct WorkOpts {
    spec: JobSpec,
    json: bool,
    fail_on_bugs: bool,
    out: Option<String>,
    json_trace: Option<String>,
    report_path: Option<String>,
    progress: bool,
}

fn parse_bug(s: &str) -> Result<BugId, ConfigError> {
    BugId::all()
        .iter()
        .copied()
        .find(|b| format!("{b:?}").eq_ignore_ascii_case(s))
        .ok_or_else(|| ConfigError::Unknown {
            what: "bug",
            value: s.to_owned(),
        })
}

fn next_value<'a, I: Iterator<Item = &'a String>>(
    flag: &'static str,
    it: &mut I,
) -> Result<&'a String, ConfigError> {
    it.next().ok_or(ConfigError::MissingValue(flag))
}

fn parse_num<T: FromStr>(flag: &'static str, v: &str) -> Result<T, ConfigError> {
    v.parse().map_err(|_| ConfigError::Invalid {
        what: flag,
        value: v.to_owned(),
        expected: "an integer",
    })
}

fn parse_work_opts(args: &[String]) -> Result<WorkOpts, XfError> {
    let mut o = WorkOpts::default();
    // Pass 1: `--job` seeds the spec. Pass 2 layers every other flag on
    // top, so flags override job-file fields regardless of order.
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--job" {
            o.spec = load_job(next_value("--job", &mut it)?)?;
        }
    }
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--job" => {
                it.next();
            }
            "--workload" | "-w" => {
                let v = next_value("--workload", &mut it)?;
                // Validate the name now so the rejection points at the
                // flag; the spec stores the string form.
                WorkloadKind::from_str(v).map_err(|_| ConfigError::Unknown {
                    what: "workload",
                    value: v.clone(),
                })?;
                o.spec.workload = Some(v.clone());
            }
            "--ops" => o.spec.ops = Some(parse_num("--ops", next_value("--ops", &mut it)?)?),
            "--init" => o.spec.init = Some(parse_num("--init", next_value("--init", &mut it)?)?),
            "--bug" => {
                let bug = parse_bug(next_value("--bug", &mut it)?)?;
                o.spec.bugs.push(format!("{bug:?}"));
            }
            "--mode" => {
                let v = next_value("--mode", &mut it)?;
                parse_mode(v)?;
                o.spec.mode = Some(v.clone());
            }
            "--workers" => {
                o.spec.workers = Some(parse_num("--workers", next_value("--workers", &mut it)?)?);
            }
            "--threads" => {
                o.spec.threads = Some(parse_num("--threads", next_value("--threads", &mut it)?)?);
            }
            "--schedule" => {
                let v = next_value("--schedule", &mut it)?;
                parse_schedule(v)?;
                o.spec.schedule = Some(v.clone());
            }
            "--capacity" => {
                let n: u64 = parse_num("--capacity", next_value("--capacity", &mut it)?)?;
                if n == 0 {
                    return Err(ConfigError::Invalid {
                        what: "--capacity",
                        value: n.to_string(),
                        expected: "a positive integer",
                    }
                    .into());
                }
                o.spec.capacity = Some(n);
            }
            "--json" => o.json = true,
            "--fail-on-bugs" => o.fail_on_bugs = true,
            "--budget-ms" => {
                o.spec.budget_ms = Some(parse_num(
                    "--budget-ms",
                    next_value("--budget-ms", &mut it)?,
                )?);
            }
            "--budget-entries" => {
                o.spec.budget_entries = Some(parse_num(
                    "--budget-entries",
                    next_value("--budget-entries", &mut it)?,
                )?);
            }
            "--journal" => o.spec.journal = Some(next_value("--journal", &mut it)?.clone()),
            "--resume" => o.spec.resume = Some(next_value("--resume", &mut it)?.clone()),
            "--metrics-out" => {
                o.spec.metrics_out = Some(next_value("--metrics-out", &mut it)?.clone());
            }
            "--repro-dir" => o.spec.repro_dir = Some(next_value("--repro-dir", &mut it)?.clone()),
            "--class-cache" => {
                o.spec.class_cache = Some(next_value("--class-cache", &mut it)?.clone());
            }
            "--cache-digest" => {
                o.spec.cache_digest = Some(next_value("--cache-digest", &mut it)?.clone());
            }
            "--progress" => o.progress = true,
            "--out" | "-o" => o.out = Some(next_value("--out", &mut it)?.clone()),
            "--json-trace" => o.json_trace = Some(next_value("--json-trace", &mut it)?.clone()),
            "--report" => o.report_path = Some(next_value("--report", &mut it)?.clone()),
            "--all-reads" => o.spec.all_reads = Some(true),
            "--no-skip-empty" => o.spec.skip_empty = Some(false),
            "--no-completion-fp" => o.spec.completion_fp = Some(false),
            "--max-failure-points" => {
                o.spec.max_failure_points = Some(parse_num(
                    "--max-failure-points",
                    next_value("--max-failure-points", &mut it)?,
                )?);
            }
            "--fire-on-every-write" => o.spec.fire_on_every_write = Some(true),
            "--no-dedup" => o.spec.dedup = Some(false),
            "--pruning" => {
                let v = next_value("--pruning", &mut it)?;
                parse_pruning(v)?;
                o.spec.pruning = Some(v.clone());
            }
            "--domain" => {
                let v = next_value("--domain", &mut it)?;
                parse_domain(v)?;
                o.spec.domain = Some(v.clone());
            }
            "--seed" => o.spec.seed = Some(parse_num("--seed", next_value("--seed", &mut it)?)?),
            other => {
                return Err(ConfigError::Unknown {
                    what: "flag",
                    value: other.to_owned(),
                }
                .into())
            }
        }
    }
    o.spec.validate()?;
    Ok(o)
}

impl WorkOpts {
    fn workload(&self) -> Result<WorkloadKind, XfError> {
        let name = self
            .spec
            .workload
            .as_deref()
            .ok_or(ConfigError::MissingSource)?;
        WorkloadKind::from_str(name).map_err(|_| {
            ConfigError::Unknown {
                what: "workload",
                value: name.to_owned(),
            }
            .into()
        })
    }

    fn ops_for(&self, kind: WorkloadKind) -> u64 {
        self.spec.ops.unwrap_or_else(|| validation_ops(kind))
    }

    fn bug_set(&self, kind: WorkloadKind) -> Result<BugSet, XfError> {
        let mut bugs = Vec::new();
        for name in &self.spec.bugs {
            let bug = parse_bug(name)?;
            if bug.workload() != kind {
                return Err(ConfigError::BugWorkloadMismatch {
                    bug: format!("{bug:?}"),
                    workload: kind.slug().to_owned(),
                }
                .into());
            }
            bugs.push(bug);
        }
        Ok(bugs.into_iter().collect())
    }

    fn exit_code(&self, report: &DetectionReport) -> ExitCode {
        let budget_overrun = report
            .findings()
            .iter()
            .any(|f| f.kind == BugKind::BudgetExceeded);
        if budget_overrun || (self.fail_on_bugs && report.has_correctness_bugs()) {
            ExitCode::from(3)
        } else {
            ExitCode::SUCCESS
        }
    }
}

/// The `--progress` stderr line: failure points done/total, dedup hit
/// rate, budget kills and a linear-extrapolation ETA.
fn progress_line(p: &Progress) {
    let c = &p.counts;
    let total = p
        .total_hint
        .map_or_else(|| "?".to_owned(), |t| t.to_string());
    let eta = p
        .eta()
        .map_or_else(String::new, |d| format!(" eta {:.1}s", d.as_secs_f64()));
    eprint!(
        "\r[{:7.1}s] fps {}/{total} | posts {} | dedup {:.0}% | stored {} | kills {}{eta}   ",
        p.elapsed.as_secs_f64(),
        c.failure_points_done,
        c.post_runs,
        c.dedup_hit_rate() * 100.0,
        c.cache_hits,
        c.budget_exceeded,
    );
}

/// Runs detection in the requested mode through a [`xfd::xfdetector::Session`]
/// built from the job spec. `record` forces the pipelined engine with trace
/// recording on.
fn run_mode(o: &WorkOpts, kind: WorkloadKind, record: bool) -> Result<RunOutcome, XfError> {
    let mode = if record { Mode::Stream } else { o.spec.mode()? };
    let mut builder = o.spec.apply(Session::builder())?;
    if record {
        let mut cfg = o.spec.config()?;
        cfg.record_trace = true;
        builder = builder.config(cfg);
    }
    if o.progress {
        builder = builder.on_progress(Duration::from_millis(200), progress_line);
    }
    let session = builder.build()?;

    let ops = o.ops_for(kind);
    let bugs = o.bug_set(kind)?;
    // Concurrency requested: run the workload's thread programs under the
    // deterministic scheduler instead of the sequential degeneration.
    let result = if o.spec.concurrent() {
        let w = build_concurrent(kind, ops, bugs).ok_or(ConfigError::Invalid {
            what: "workload",
            value: kind.slug().to_owned(),
            expected: "a concurrent workload (treiber_stack or ms_queue) with threads/schedule",
        })?;
        session.run_concurrent(w, mode)
    } else {
        session.run(
            build_with_init(kind, o.spec.init.unwrap_or(0), ops, bugs),
            mode,
        )
    };
    if o.progress {
        eprintln!();
    }
    let outcome = result?;

    if let Some(dir) = &o.spec.repro_dir {
        let paths = xfstream::write_repro_artifacts(&outcome, Path::new(dir))?;
        match paths.len() {
            0 => eprintln!("no failing failure points; nothing to export to {dir}"),
            n => eprintln!("exported {n} repro artifact(s) to {dir}"),
        }
    }
    Ok(outcome)
}

#[derive(Serialize)]
struct ReportOut {
    workload: String,
    mode: String,
    report: DetectionReport,
    stats: RunStats,
}

fn human_summary(report: &DetectionReport, stats: &RunStats) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{report}\n\
         failure points: {} ({} post runs, {} deduped, {} ordering points, {} skipped empty)\n\
         trace:          {} pre + {} post entries\n\
         wall clock:     {:.3}s total ({:.3}s post-failure, {:.3}s checking)",
        stats.failure_points,
        stats.post_runs,
        stats.images_deduped,
        stats.ordering_points,
        stats.skipped_empty,
        stats.pre_entries,
        stats.post_entries,
        stats.total_time.as_secs_f64(),
        stats.post_exec_time.as_secs_f64(),
        stats.check_time.as_secs_f64(),
    );
    if stats.classes_total > 0 {
        let _ = write!(
            s,
            "\npruning:        {} classes, {} failure points pruned ({:.1}x fewer post runs)",
            stats.classes_total, stats.fps_pruned, stats.pruning_ratio,
        );
    }
    if stats.cache_hits > 0 || stats.cache_classes_loaded > 0 {
        let _ = write!(
            s,
            "\nstore:          {} hits, {} misses, {} records loaded ({} bytes)",
            stats.cache_hits, stats.cache_misses, stats.cache_classes_loaded, stats.cache_bytes,
        );
    }
    if stats.stream_batches > 0 {
        let _ = write!(
            s,
            "\nstream FIFO:    {} windows, max depth {} messages, {:.3}s frontend stall",
            stats.stream_batches,
            stats.stream_max_depth,
            stats.stream_stall_time.as_secs_f64(),
        );
    }
    if stats.schedules_explored > 0 {
        let _ = write!(
            s,
            "\nconcurrency:    {} schedule(s) explored, {} cross-thread finding(s)",
            stats.schedules_explored, stats.cross_thread_findings,
        );
    }
    s
}

fn write_file(path: &str, bytes: &[u8]) -> Result<(), XfError> {
    fs::write(path, bytes).map_err(|e| io_at(path, e))
}

fn cmd_record(args: &[String]) -> Result<ExitCode, XfError> {
    let o = parse_work_opts(args)?;
    let kind = o.workload()?;
    let outcome = run_mode(&o, kind, true)?;
    let run = outcome
        .recorded
        .as_ref()
        .expect("record mode always records");

    let out = o
        .out
        .clone()
        .unwrap_or_else(|| format!("{}.xft", kind.slug()));
    let file = fs::File::create(&out).map_err(|e| io_at(&out, e))?;
    xfstream::write_recorded_run(BufWriter::new(file), run).map_err(|e| codec_at(&out, e))?;
    let xft_bytes = fs::metadata(&out).map(|m| m.len()).unwrap_or(0);

    if let Some(path) = &o.json_trace {
        let json = serde_json::to_string(run).map_err(json_err)?;
        write_file(path, json.as_bytes())?;
    }
    if let Some(path) = &o.report_path {
        let report_json = serde_json::to_string(&outcome.report).map_err(json_err)?;
        write_file(path, report_json.as_bytes())?;
    }

    println!(
        "recorded {}: {} entries, {} failure points -> {} ({} bytes)",
        kind.slug(),
        run.entry_count(),
        run.failure_points.len(),
        out,
        xft_bytes,
    );
    if o.json {
        println!(
            "{}",
            serde_json::to_string(&outcome.report).map_err(json_err)?
        );
    } else {
        println!("{}", human_summary(&outcome.report, &outcome.stats));
    }
    Ok(o.exit_code(&outcome.report))
}

fn cmd_analyze(args: &[String]) -> Result<ExitCode, XfError> {
    let mut path = None;
    let mut rest = Vec::new();
    for a in args {
        if !a.starts_with('-') && path.is_none() {
            path = Some(a.clone());
        } else {
            rest.push(a.clone());
        }
    }
    let path = path.ok_or(ConfigError::MissingSource)?;
    let o = parse_work_opts(&rest)?;
    let cfg = o.spec.config()?;

    // One pass over the trace as it decodes: each failure point is checked
    // by the detection backend and, with `--pruning`, fingerprinted first,
    // so the census reports how the trace collapses into equivalence
    // classes — the reduction a pruned live run would see.
    let bytes = fs::read(&path).map_err(|e| io_at(&path, e))?;
    let reader = XftMmapReader::from_bytes(&bytes[..]).map_err(|e| codec_at(&path, e))?;
    let domain = reader.header().domain;
    let (report, keys) = offline::replay(
        reader.events(),
        domain,
        cfg.first_read_only,
        cfg.pruning.is_enabled(),
    )
    .map_err(|e| codec_at(&path, e))?;
    let census = keys.as_deref().map(PruningCensus::of);

    #[derive(Serialize)]
    struct AnalyzeOut {
        report: DetectionReport,
        pruning_census: PruningCensus,
    }
    let json = match &census {
        None => serde_json::to_string(&report),
        Some(c) => serde_json::to_string(&AnalyzeOut {
            report: report.clone(),
            pruning_census: c.clone(),
        }),
    }
    .map_err(json_err)?;
    if let Some(out) = &o.out {
        write_file(out, json.as_bytes())?;
    }
    if o.json {
        println!("{json}");
    } else {
        println!("{report}");
        if let Some(c) = &census {
            println!(
                "pruning census: {} failure points in {} equivalence classes \
                 ({:.1}x; largest class {})",
                c.failure_points,
                c.classes,
                c.ratio(),
                c.largest_class,
            );
        }
    }
    Ok(o.exit_code(&report))
}

fn cmd_report(args: &[String]) -> Result<ExitCode, XfError> {
    let o = parse_work_opts(args)?;
    let kind = o.workload()?;
    let outcome = run_mode(&o, kind, false)?;
    let mode = o.spec.mode()?;
    // Bare report, byte-comparable with `xfd analyze --out` and `xfd
    // record --report` output (the CI equivalence gates `cmp` these).
    if let Some(path) = &o.report_path {
        let report_json = serde_json::to_string(&outcome.report).map_err(json_err)?;
        write_file(path, report_json.as_bytes())?;
    }
    if o.json {
        let out = ReportOut {
            workload: kind.slug().to_owned(),
            mode: mode.name().to_owned(),
            report: outcome.report.clone(),
            stats: outcome.stats.clone(),
        };
        println!("{}", serde_json::to_string(&out).map_err(json_err)?);
    } else {
        println!("workload:       {} ({} mode)", kind.slug(), mode.name());
        println!("{}", human_summary(&outcome.report, &outcome.stats));
    }
    Ok(o.exit_code(&outcome.report))
}

/// `xfd fuzz` options: the [`DiffConfig`] surface plus replay/output modes.
/// The job-spec fields that make sense for a fuzz campaign (`seed`,
/// `pruning`, `threads`, `budget_entries`, `program`) are honored from
/// `--job` files too.
#[derive(Debug)]
struct FuzzOpts {
    diff: DiffConfig,
    replay: Option<String>,
    progress: bool,
    json: bool,
}

fn parse_fuzz_opts(args: &[String]) -> Result<FuzzOpts, XfError> {
    let mut o = FuzzOpts {
        diff: DiffConfig::default(),
        replay: None,
        progress: false,
        json: false,
    };
    // `--job` seeds the campaign from a spec's overlapping fields.
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--job" {
            let spec = load_job(next_value("--job", &mut it)?)?;
            if let Some(seed) = spec.seed {
                o.diff.seed = seed;
            }
            if let Some(n) = spec.budget_entries {
                o.diff.budget_entries = Some(n);
            }
            o.diff.pruning = spec.pruning()?;
            o.diff.domain = spec.domain()?;
            if let Some(t) = spec.threads {
                o.diff.threads = t;
            }
            o.replay = spec.program.clone();
        }
    }
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--job" => {
                it.next();
            }
            "--seed" => o.diff.seed = parse_num("--seed", next_value("--seed", &mut it)?)?,
            "--iters" => {
                o.diff.iters = parse_num("--iters", next_value("--iters", &mut it)?)?;
                if o.diff.iters == 0 {
                    return Err(ConfigError::Invalid {
                        what: "--iters",
                        value: "0".into(),
                        expected: "a positive integer",
                    }
                    .into());
                }
            }
            "--max-ops" => {
                o.diff.max_ops = parse_num("--max-ops", next_value("--max-ops", &mut it)?)?;
                if o.diff.max_ops == 0 {
                    return Err(ConfigError::Invalid {
                        what: "--max-ops",
                        value: "0".into(),
                        expected: "a positive integer",
                    }
                    .into());
                }
            }
            "--shrink" => o.diff.shrink = true,
            "--no-shrink" => o.diff.shrink = false,
            "--corpus-dir" => {
                o.diff.corpus_dir = Some(next_value("--corpus-dir", &mut it)?.clone().into());
            }
            "--budget-entries" => {
                let n: u64 =
                    parse_num("--budget-entries", next_value("--budget-entries", &mut it)?)?;
                if n == 0 {
                    return Err(ConfigError::Invalid {
                        what: "--budget-entries",
                        value: "0".into(),
                        expected: "a positive integer",
                    }
                    .into());
                }
                o.diff.budget_entries = Some(n);
            }
            "--pruning" => o.diff.pruning = parse_pruning(next_value("--pruning", &mut it)?)?,
            "--domain" => o.diff.domain = parse_domain(next_value("--domain", &mut it)?)?,
            "--threads" => {
                o.diff.threads = parse_num("--threads", next_value("--threads", &mut it)?)?;
                if o.diff.threads == 0 {
                    return Err(ConfigError::ZeroThreads.into());
                }
            }
            "--replay" => o.replay = Some(next_value("--replay", &mut it)?.clone()),
            "--progress" => o.progress = true,
            "--json" => o.json = true,
            other => {
                return Err(ConfigError::Unknown {
                    what: "flag",
                    value: other.to_owned(),
                }
                .into())
            }
        }
    }
    Ok(o)
}

#[derive(Serialize)]
struct FuzzDivergenceOut {
    iter: u64,
    check: &'static str,
    program: String,
    minimized: Option<String>,
}

#[derive(Serialize)]
struct FuzzOut {
    seed: u64,
    iters: u64,
    max_ops: usize,
    threads: u32,
    programs_checked: u64,
    digest: String,
    divergences: Vec<FuzzDivergenceOut>,
}

/// Prints one replayed program's check result and maps it to an exit code.
fn finish_replay<P: FuzzSource>(program: &P, outcome: &xffuzz::CheckOutcome) -> ExitCode {
    match &outcome.divergence {
        None => {
            println!(
                "{}: {} ops, the engines agree",
                program.source_name(),
                program.op_count()
            );
            ExitCode::SUCCESS
        }
        Some(d) => {
            println!("{}: DIVERGENCE on {}", program.source_name(), d.check);
            println!("--- left ---\n{}", d.left);
            println!("--- right ---\n{}", d.right);
            ExitCode::from(3)
        }
    }
}

/// Prints a finished campaign (JSON or human form) and maps it to an exit
/// code — shared by the sequential and concurrent campaign shapes.
fn finish_fuzz<P: FuzzSource>(
    o: &FuzzOpts,
    outcome: &xffuzz::CampaignOutcome<P>,
) -> Result<ExitCode, XfError> {
    let digest = format!("{:016x}", outcome.digest);
    if o.json {
        let out = FuzzOut {
            seed: o.diff.seed,
            iters: o.diff.iters,
            max_ops: o.diff.max_ops,
            threads: o.diff.threads,
            programs_checked: outcome.programs_checked,
            digest,
            divergences: outcome
                .divergences
                .iter()
                .map(|d| FuzzDivergenceOut {
                    iter: d.iter,
                    check: d.info.check,
                    program: d.program.text(),
                    minimized: d.minimized.as_ref().map(FuzzSource::text),
                })
                .collect(),
        };
        println!("{}", serde_json::to_string(&out).map_err(json_err)?);
    } else {
        println!(
            "fuzz campaign: seed {}, {} programs, max {} ops each, {} thread(s)",
            o.diff.seed, outcome.programs_checked, o.diff.max_ops, o.diff.threads
        );
        println!("campaign digest: {digest}");
        if outcome.divergences.is_empty() {
            println!("engines and oracle agree on every program");
        } else {
            for d in &outcome.divergences {
                let min = d.minimized.as_ref().map_or_else(String::new, |m| {
                    format!(" (minimized to {} ops)", m.op_count())
                });
                println!(
                    "DIVERGENCE at iteration {}: {} on {} ops{min}",
                    d.iter,
                    d.info.check,
                    d.program.op_count()
                );
            }
            if let Some(dir) = &o.diff.corpus_dir {
                println!("repro bundles written under {}", dir.display());
            }
        }
    }
    Ok(if outcome.divergences.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    })
}

fn cmd_fuzz(args: &[String]) -> Result<ExitCode, XfError> {
    let o = parse_fuzz_opts(args)?;

    // Replay mode: one saved program through the full differential check.
    // The text header picks the shape: `xffuzz v1` sequential, `xffuzz c1`
    // concurrent.
    if let Some(path) = &o.replay {
        let text = fs::read_to_string(path).map_err(|e| io_at(path, e))?;
        return if text.starts_with(xfd::xffuzz::program::CONC_TEXT_HEADER) {
            let program = ConcurrentFuzzProgram::from_text(&text).map_err(|e| codec_at(path, e))?;
            let outcome = xffuzz::check_concurrent_program(&program, &o.diff)?;
            Ok(finish_replay(&program, &outcome))
        } else {
            let program = FuzzProgram::from_text(&text).map_err(|e| codec_at(path, e))?;
            let outcome = xffuzz::check_program(&program, &o.diff)?;
            Ok(finish_replay(&program, &outcome))
        };
    }

    let progress = o.progress;
    let on_progress = |iter: u64, diverged: bool| {
        if progress {
            eprint!("\rfuzz: {}/{} programs checked   ", iter + 1, o.diff.iters);
        }
        if diverged {
            eprintln!("\nfuzz: divergence at iteration {iter}");
        }
    };
    let code = if o.diff.threads > 1 {
        let outcome = xffuzz::run_concurrent_campaign_with(&o.diff, on_progress)?;
        if progress {
            eprintln!();
        }
        finish_fuzz(&o, &outcome)?
    } else {
        let outcome = xffuzz::run_campaign_with(&o.diff, on_progress)?;
        if progress {
            eprintln!();
        }
        finish_fuzz(&o, &outcome)?
    };
    Ok(code)
}

/// Endpoint selection shared by the server subcommands.
#[derive(Debug, Clone)]
enum Endpoint {
    Tcp(String),
    #[cfg(unix)]
    Unix(String),
}

impl Default for Endpoint {
    fn default() -> Self {
        Endpoint::Tcp("127.0.0.1:7611".to_owned())
    }
}

/// Parses `--addr`/`--socket` out of an argument list, returning the
/// endpoint and the remaining arguments.
fn parse_endpoint(args: &[String]) -> Result<(Endpoint, Vec<String>), XfError> {
    let mut ep = Endpoint::default();
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => ep = Endpoint::Tcp(next_value("--addr", &mut it)?.clone()),
            "--socket" => {
                #[cfg(unix)]
                {
                    ep = Endpoint::Unix(next_value("--socket", &mut it)?.clone());
                }
                #[cfg(not(unix))]
                {
                    let _ = next_value("--socket", &mut it)?;
                    return Err(ConfigError::Invalid {
                        what: "--socket",
                        value: "unix socket".into(),
                        expected: "--addr on this platform",
                    }
                    .into());
                }
            }
            _ => rest.push(arg.clone()),
        }
    }
    Ok((ep, rest))
}

fn connect(ep: &Endpoint) -> Result<xfserve::AnyStream, XfError> {
    match ep {
        Endpoint::Tcp(addr) => Ok(xfserve::AnyStream::connect_tcp(addr).map_err(XfError::Io)?),
        #[cfg(unix)]
        Endpoint::Unix(path) => Ok(xfserve::AnyStream::connect_unix(path).map_err(XfError::Io)?),
    }
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, XfError> {
    let (ep, rest) = parse_endpoint(args)?;
    let mut opts = xfserve::ServerOptions::default();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--exec-workers" => {
                opts.exec_workers =
                    parse_num("--exec-workers", next_value("--exec-workers", &mut it)?)?;
                if opts.exec_workers == 0 {
                    return Err(ConfigError::Invalid {
                        what: "--exec-workers",
                        value: "0".into(),
                        expected: "a positive integer",
                    }
                    .into());
                }
            }
            "--cache-dir" => {
                opts.cache_dir = Some(next_value("--cache-dir", &mut it)?.clone().into());
            }
            other => {
                return Err(ConfigError::Unknown {
                    what: "flag",
                    value: other.to_owned(),
                }
                .into())
            }
        }
    }
    let server = match &ep {
        Endpoint::Tcp(addr) => xfserve::Server::bind_tcp(addr, opts)?,
        #[cfg(unix)]
        Endpoint::Unix(path) => xfserve::Server::bind_unix(path, opts)?,
    };
    eprintln!("xfd serve: listening on {}", server.local_endpoint());
    server.run()?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_submit(args: &[String]) -> Result<ExitCode, XfError> {
    let (ep, rest) = parse_endpoint(args)?;
    let mut artifact: Option<String> = None;
    let mut wait = true;
    let mut work_args = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--artifact" => artifact = Some(next_value("--artifact", &mut it)?.clone()),
            "--no-wait" => wait = false,
            _ => work_args.push(arg.clone()),
        }
    }
    let o = parse_work_opts(&work_args)?;
    let mut spec = o.spec.clone();

    let upload = match &artifact {
        None => None,
        Some(path) => {
            let bytes = fs::read(path).map_err(|e| io_at(path, e))?;
            let kind = if path.ends_with(".fuzz") {
                spec.program = Some(
                    Path::new(path)
                        .file_name()
                        .map_or_else(|| path.clone(), |n| n.to_string_lossy().into_owned()),
                );
                xfserve::ArtifactKind::Fuzz
            } else {
                spec.trace = Some(
                    Path::new(path)
                        .file_name()
                        .map_or_else(|| path.clone(), |n| n.to_string_lossy().into_owned()),
                );
                xfserve::ArtifactKind::Xft
            };
            Some((kind, bytes))
        }
    };
    spec.require_source()?;

    let mut client = xfserve::Client::new(connect(&ep)?);
    let id = client.submit(&spec, upload.as_ref().map(|(k, b)| (*k, b.as_slice())))?;
    if !wait {
        println!("{id}");
        return Ok(ExitCode::SUCCESS);
    }
    let code = client.stream_job(&mut render_event)?;
    Ok(ExitCode::from(code))
}

fn cmd_watch(args: &[String]) -> Result<ExitCode, XfError> {
    let (ep, rest) = parse_endpoint(args)?;
    let id_arg = rest
        .iter()
        .find(|a| !a.starts_with('-'))
        .ok_or(ConfigError::MissingValue("watch JOBID"))?;
    let id: u64 = parse_num("JOBID", id_arg)?;
    let mut client = xfserve::Client::new(connect(&ep)?);
    client.watch(id)?;
    let code = client.stream_job(&mut render_event)?;
    Ok(ExitCode::from(code))
}

fn cmd_stop(args: &[String]) -> Result<ExitCode, XfError> {
    let (ep, _rest) = parse_endpoint(args)?;
    let mut client = xfserve::Client::new(connect(&ep)?);
    client.shutdown()?;
    eprintln!("xfd stop: server acknowledged shutdown");
    Ok(ExitCode::SUCCESS)
}

/// Renders one server event frame to stdout/stderr.
fn render_event(ev: &xfserve::JobEvent) {
    match ev {
        xfserve::JobEvent::Accepted { id } => eprintln!("job {id} accepted"),
        xfserve::JobEvent::Progress { json } => eprintln!("progress: {json}"),
        xfserve::JobEvent::Report { json } => println!("{json}"),
        xfserve::JobEvent::Metrics { json } => eprintln!("metrics: {json}"),
        xfserve::JobEvent::Done { exit_code } => eprintln!("job done (exit {exit_code})"),
        xfserve::JobEvent::Error { message } => eprintln!("job error: {message}"),
    }
}

fn cmd_info(args: &[String]) -> Result<ExitCode, XfError> {
    let Some(path) = args.iter().find(|a| !a.starts_with('-')) else {
        println!(
            "host parallelism: {} (std::thread::available_parallelism)",
            std::thread::available_parallelism()
                .map(|n| n.get().to_string())
                .unwrap_or_else(|_| "unknown".to_owned())
        );
        println!("workloads:");
        for kind in WorkloadKind::ALL {
            println!(
                "  {:<16} {} (default ops: {})",
                kind.slug(),
                kind,
                validation_ops(kind)
            );
        }
        println!(
            "\nbugs ({} registered, inject with --bug <ID>):",
            BugId::all().len()
        );
        for bug in BugId::all() {
            println!(
                "  {:<24} [{}] {}",
                format!("{bug:?}"),
                bug.workload(),
                bug.description()
            );
        }
        return Ok(ExitCode::SUCCESS);
    };

    let bytes = fs::read(path).map_err(|e| io_at(path, e))?;
    let size = bytes.len();
    let mut reader = XftMmapReader::from_bytes(bytes).map_err(|e| codec_at(path, e))?;
    let header = reader.header();
    while reader
        .next_event()
        .map_err(|e| codec_at(path, e))?
        .is_some()
    {}

    println!("trace:          {path}");
    println!("format version: {}", header.version);
    println!("domain:         {}", header.domain);
    if header.is_concurrent() {
        println!("threads:        {}", header.threads);
        println!("schedule:       {}", header.schedule);
    }
    println!("size:           {size} bytes");
    println!(
        "entries:        {}{}",
        reader.entries_read(),
        match header.entry_count {
            Some(n) => format!(" (header: {n})"),
            None => " (streaming trace, counts from End record)".to_owned(),
        }
    );
    println!("failure points: {}", reader.failure_points_read());
    println!("source files:   {}", reader.files().len());
    for f in reader.files() {
        println!("  {f}");
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xfd::xfdetector::{FailurePoint, Finding, Pruning, ScheduleSpec};
    use xfd::xftrace::SourceLoc;

    fn parse(args: &[&str]) -> Result<WorkOpts, XfError> {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        parse_work_opts(&owned)
    }

    #[test]
    fn session_flags_parse() {
        let o = parse(&[
            "--workload",
            "btree",
            "--budget-ms",
            "250",
            "--budget-entries",
            "5000",
            "--journal",
            "run.xfj",
            "--metrics-out",
            "metrics.json",
            "--repro-dir",
            "repro",
            "--progress",
        ])
        .unwrap();
        assert_eq!(o.spec.workload.as_deref(), Some("btree"));
        assert_eq!(o.spec.budget_ms, Some(250));
        assert_eq!(o.spec.budget_entries, Some(5000));
        assert_eq!(o.spec.journal.as_deref(), Some("run.xfj"));
        assert_eq!(o.spec.metrics_out.as_deref(), Some("metrics.json"));
        assert_eq!(o.spec.repro_dir.as_deref(), Some("repro"));
        assert!(o.progress);

        let b = o.spec.budget().unwrap().expect("budget assembled");
        assert!(!b.is_unlimited());
    }

    #[test]
    fn resume_flag_parses_and_excludes_journal() {
        let o = parse(&["--resume", "run.xfj"]).unwrap();
        assert_eq!(o.spec.resume.as_deref(), Some("run.xfj"));
        assert!(o.spec.journal.is_none());

        let err = parse(&["--journal", "a.xfj", "--resume", "b.xfj"]).unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"), "{err}");
        let err = parse(&["--resume", "b.xfj", "--journal", "a.xfj"]).unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn zero_budgets_are_rejected() {
        assert!(parse(&["--budget-ms", "0"]).is_err());
        assert!(parse(&["--budget-entries", "0"]).is_err());
        assert!(parse(&["--budget-ms", "abc"]).is_err());
    }

    #[test]
    fn no_budget_flags_means_no_budget() {
        let o = parse(&["--workload", "btree"]).unwrap();
        assert!(o.spec.budget().unwrap().is_none());
    }

    #[test]
    fn mode_flag_parses_all_three() {
        for (name, mode) in [
            ("batch", Mode::Batch),
            ("stream", Mode::Stream),
            ("parallel", Mode::Parallel),
        ] {
            assert_eq!(parse(&["--mode", name]).unwrap().spec.mode().unwrap(), mode);
        }
        let err = parse(&["--mode", "turbo"]).unwrap_err();
        assert!(
            matches!(
                err,
                XfError::Config(ConfigError::Invalid { what: "mode", .. })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn pruning_flag_parses_all_modes() {
        assert_eq!(parse(&[]).unwrap().spec.pruning().unwrap(), Pruning::Off);
        assert_eq!(
            parse(&["--pruning", "off"])
                .unwrap()
                .spec
                .pruning()
                .unwrap(),
            Pruning::Off
        );
        assert_eq!(
            parse(&["--pruning", "equivalence"])
                .unwrap()
                .spec
                .pruning()
                .unwrap(),
            Pruning::Equivalence
        );
    }

    #[test]
    fn pruning_flag_rejects_malformed_modes() {
        for bad in ["sometimes", "sampled:0.5", "sampled:0.25:7"] {
            let err = parse(&["--pruning", bad]).unwrap_err();
            assert!(
                matches!(
                    err,
                    XfError::Config(ConfigError::Invalid {
                        what: "pruning",
                        ..
                    })
                ),
                "{bad}: {err:?}"
            );
            assert_eq!(err.exit_code(), 1, "{bad}");
        }
        assert!(parse(&["--pruning"]).is_err(), "--pruning needs a value");
    }

    #[test]
    fn fuzz_pruning_flag_reaches_the_diff_config() {
        let o = parse_fuzz(&["--pruning", "equivalence"]).unwrap();
        assert_eq!(o.diff.pruning, Pruning::Equivalence);
        assert_eq!(parse_fuzz(&[]).unwrap().diff.pruning, Pruning::Off);
    }

    #[test]
    fn threads_and_schedule_flags_parse() {
        let o = parse(&["--workload", "treiber_stack", "--threads", "2"]).unwrap();
        assert_eq!(o.spec.threads, Some(2));
        assert!(o.spec.schedule.is_none());

        assert_eq!(
            parse(&["--schedule", "rr"])
                .unwrap()
                .spec
                .schedule()
                .unwrap(),
            Some(ScheduleSpec::RoundRobin)
        );
        assert_eq!(
            parse(&["--schedule", "seed:42"])
                .unwrap()
                .spec
                .schedule()
                .unwrap(),
            Some(ScheduleSpec::Seeded(42))
        );
        assert_eq!(
            parse(&["--schedule", "exhaustive:3"])
                .unwrap()
                .spec
                .schedule()
                .unwrap(),
            Some(ScheduleSpec::Exhaustive(3))
        );

        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--schedule", "chaotic"]).is_err());
        assert!(parse(&["--schedule", "seed:"]).is_err());
        assert!(parse(&["--schedule", "exhaustive:x"]).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let err = parse(&["--frobnicate"]).unwrap_err();
        assert!(err.to_string().contains("--frobnicate"), "{err}");
        assert!(
            matches!(
                err,
                XfError::Config(ConfigError::Unknown { what: "flag", .. })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn job_files_seed_the_spec_and_flags_override() {
        let dir = std::env::temp_dir().join(format!("xfd-job-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let job = dir.join("job.json");
        std::fs::write(
            &job,
            r#"{"workload": "btree", "ops": 12, "mode": "parallel", "pruning": "equivalence"}"#,
        )
        .unwrap();
        let job_flag = job.display().to_string();

        // Job file alone.
        let o = parse(&["--job", &job_flag]).unwrap();
        assert_eq!(o.spec.workload.as_deref(), Some("btree"));
        assert_eq!(o.spec.ops, Some(12));
        assert_eq!(o.spec.mode().unwrap(), Mode::Parallel);

        // Flags override fields, in either order.
        let o = parse(&["--job", &job_flag, "--ops", "99", "--mode", "batch"]).unwrap();
        assert_eq!(o.spec.ops, Some(99));
        assert_eq!(o.spec.mode().unwrap(), Mode::Batch);
        let o = parse(&["--ops", "99", "--job", &job_flag]).unwrap();
        assert_eq!(o.spec.ops, Some(99), "flag wins regardless of position");
        assert_eq!(o.spec.pruning().unwrap(), Pruning::Equivalence);

        // A malformed job file is a typed configuration rejection.
        let bad = dir.join("bad.json");
        std::fs::write(&bad, r#"{"worklod": "btree"}"#).unwrap();
        let err = parse(&["--job", &bad.display().to_string()]).unwrap_err();
        assert!(
            matches!(err, XfError::Config(ConfigError::Invalid { .. })),
            "{err:?}"
        );
        assert_eq!(err.exit_code(), 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_flags_parse_into_the_spec() {
        let o = parse(&[
            "--workload",
            "btree",
            "--pruning",
            "equivalence",
            "--class-cache",
            "campaign.xfc",
            "--cache-digest",
            "v2",
        ])
        .unwrap();
        assert_eq!(o.spec.class_cache.as_deref(), Some("campaign.xfc"));
        assert_eq!(o.spec.cache_digest.as_deref(), Some("v2"));
    }

    fn finding(kind: BugKind) -> Finding {
        let loc = SourceLoc::synthetic("<test>");
        Finding {
            kind,
            addr: 0,
            size: 0,
            reader: Some(loc),
            writer: None,
            failure_point: Some(FailurePoint { id: 0, loc }),
            message: None,
        }
    }

    #[test]
    fn exit_codes_follow_the_report() {
        let quiet = WorkOpts::default();
        let strict = WorkOpts {
            fail_on_bugs: true,
            ..WorkOpts::default()
        };

        let clean = DetectionReport::new();
        assert_eq!(quiet.exit_code(&clean), ExitCode::SUCCESS);
        assert_eq!(strict.exit_code(&clean), ExitCode::SUCCESS);

        let mut racy = DetectionReport::new();
        racy.push(finding(BugKind::CrossFailureRace));
        assert_eq!(quiet.exit_code(&racy), ExitCode::SUCCESS);
        assert_eq!(strict.exit_code(&racy), ExitCode::from(3));

        // Budget overruns exit 3 even without --fail-on-bugs.
        let mut killed = DetectionReport::new();
        killed.push(finding(BugKind::BudgetExceeded));
        assert_eq!(quiet.exit_code(&killed), ExitCode::from(3));
        assert_eq!(strict.exit_code(&killed), ExitCode::from(3));
    }

    fn parse_fuzz(args: &[&str]) -> Result<FuzzOpts, XfError> {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        parse_fuzz_opts(&owned)
    }

    #[test]
    fn fuzz_flags_parse() {
        let o = parse_fuzz(&[
            "--seed",
            "7",
            "--iters",
            "250",
            "--max-ops",
            "48",
            "--no-shrink",
            "--corpus-dir",
            "corpus",
            "--budget-entries",
            "5000",
            "--progress",
            "--json",
        ])
        .unwrap();
        assert_eq!(o.diff.seed, 7);
        assert_eq!(o.diff.iters, 250);
        assert_eq!(o.diff.max_ops, 48);
        assert!(!o.diff.shrink);
        assert_eq!(o.diff.corpus_dir.as_deref(), Some(Path::new("corpus")));
        assert_eq!(o.diff.budget_entries, Some(5000));
        assert!(o.progress && o.json);
    }

    #[test]
    fn fuzz_defaults_and_replay() {
        let o = parse_fuzz(&[]).unwrap();
        assert_eq!(o.diff.seed, 1);
        assert!(o.diff.shrink, "shrinking is on by default");
        assert!(o.replay.is_none());

        let o = parse_fuzz(&["--replay", "min.fuzz", "--shrink"]).unwrap();
        assert_eq!(o.replay.as_deref(), Some("min.fuzz"));
        assert!(o.diff.shrink);
    }

    #[test]
    fn fuzz_rejects_degenerate_values() {
        assert!(parse_fuzz(&["--iters", "0"]).is_err());
        assert!(parse_fuzz(&["--max-ops", "0"]).is_err());
        assert!(parse_fuzz(&["--budget-entries", "0"]).is_err());
        assert!(parse_fuzz(&["--threads", "0"]).is_err());
        assert!(parse_fuzz(&["--frobnicate"]).is_err());
    }

    #[test]
    fn fuzz_threads_flag_reaches_the_diff_config() {
        assert_eq!(parse_fuzz(&[]).unwrap().diff.threads, 1);
        assert_eq!(parse_fuzz(&["--threads", "4"]).unwrap().diff.threads, 4);
    }

    #[test]
    fn bug_ids_parse_case_insensitively() {
        assert_eq!(parse_bug("btnoaddcount").unwrap(), BugId::BtNoAddCount);
        assert_eq!(
            parse_bug("HaHangRecoveryLoop").unwrap(),
            BugId::HaHangRecoveryLoop
        );
        assert!(parse_bug("NoSuchBug").is_err());
    }

    #[test]
    fn bug_workload_mismatch_is_rejected() {
        let o = parse(&["--workload", "ctree", "--bug", "BtNoAddCount"]).unwrap();
        let err = o.bug_set(WorkloadKind::Ctree).unwrap_err();
        assert!(
            matches!(
                err,
                XfError::Config(ConfigError::BugWorkloadMismatch { .. })
            ),
            "{err:?}"
        );
        assert!(o.bug_set(WorkloadKind::Btree).is_ok());
    }

    #[test]
    fn endpoint_flags_parse() {
        let (ep, rest) = parse_endpoint(&[
            "--addr".to_owned(),
            "127.0.0.1:9000".to_owned(),
            "--workload".to_owned(),
            "btree".to_owned(),
        ])
        .unwrap();
        assert!(matches!(ep, Endpoint::Tcp(ref a) if a == "127.0.0.1:9000"));
        assert_eq!(rest, vec!["--workload".to_owned(), "btree".to_owned()]);
        let (ep, _) = parse_endpoint(&[]).unwrap();
        assert!(matches!(ep, Endpoint::Tcp(ref a) if a == "127.0.0.1:7611"));
    }
}
