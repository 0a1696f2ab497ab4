//! The `serve` workload: an in-process campaign server and a closed loop of
//! two client connections submitting a seeded job mix.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use pmem::PersistDomain::{self, Adr, Eadr};
use xfdetector::{JobSpec, Mode};
use xfserve::{AnyStream, ArtifactKind, Client, JobEvent, Server, ServerOptions};

use crate::inputs::{serve_program, Program, Rng, Tally, SERVE_KINDS, SERVE_OPS};

/// Executor threads of the server.
const EXEC_WORKERS: usize = 2;
/// Client connections of the closed loop.
pub const CLIENTS: usize = 2;
/// Least length of the pre-drawn job sequence; the loop never exhausts it.
const MIX_LEN: usize = 4096;

/// A running in-process server and the directory it owns.
pub struct ServerHandle {
    pub endpoint: String,
    thread: thread::JoinHandle<std::io::Result<()>>,
    dir: PathBuf,
}

/// Starts a server with `exec_workers = 2` and an empty class-cache
/// directory under `dir`.
pub fn start_server(dir: &Path) -> ServerHandle {
    let _ = std::fs::remove_dir_all(dir);
    let server = Server::bind_tcp(
        "127.0.0.1:0",
        ServerOptions {
            exec_workers: EXEC_WORKERS,
            cache_dir: Some(dir.join("cache")),
        },
    )
    .expect("bind the campaign server");
    let endpoint = server.local_endpoint().to_owned();
    ServerHandle {
        endpoint,
        thread: thread::spawn(move || server.run()),
        dir: dir.to_owned(),
    }
}

impl ServerHandle {
    /// Shuts the server down, joins it and removes its directory.
    pub fn stop(self) {
        let mut client =
            Client::new(AnyStream::connect_tcp(&self.endpoint).expect("connect to stop"));
        client.shutdown().expect("server acknowledges shutdown");
        self.thread
            .join()
            .expect("server thread")
            .expect("server run");
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Client-side timestamps and payloads of one job.
#[derive(Debug, Clone)]
pub struct JobTimes {
    pub submit: Instant,
    pub accepted: Option<Instant>,
    pub progress: Option<Instant>,
    pub report: Option<Instant>,
    pub done: Option<Instant>,
    pub report_json: Option<String>,
    pub metrics_json: Option<String>,
    pub exit_code: Option<u8>,
    pub error: Option<String>,
}

impl JobTimes {
    /// SUBMIT to DONE.
    pub fn latency(&self) -> Option<Duration> {
        Some(self.done?.duration_since(self.submit))
    }
}

/// Submits one job on a fresh connection and follows it to DONE.
pub fn submit(endpoint: &str, spec: &JobSpec, upload: Option<&[u8]>) -> JobTimes {
    let mut t = JobTimes {
        submit: Instant::now(),
        accepted: None,
        progress: None,
        report: None,
        done: None,
        report_json: None,
        metrics_json: None,
        exit_code: None,
        error: None,
    };
    let mut client = match AnyStream::connect_tcp(endpoint) {
        Ok(s) => Client::new(s),
        Err(e) => {
            t.error = Some(e.to_string());
            return t;
        }
    };
    if let Err(e) = client.submit(spec, upload.map(|b| (ArtifactKind::Xft, b))) {
        t.error = Some(e.to_string());
        return t;
    }
    t.accepted = Some(Instant::now());
    let streamed = client.stream_job(&mut |ev: &JobEvent| {
        let now = Instant::now();
        match ev {
            JobEvent::Progress { .. } => {
                t.progress.get_or_insert(now);
            }
            JobEvent::Report { json } => {
                t.report = Some(now);
                t.report_json = Some(json.clone());
            }
            JobEvent::Metrics { json } => t.metrics_json = Some(json.clone()),
            JobEvent::Error { message } => t.error = Some(message.clone()),
            JobEvent::Done { .. } => t.done = Some(now),
            JobEvent::Accepted { .. } => {}
        }
    });
    match streamed {
        Ok(code) => t.exit_code = Some(code),
        Err(e) => t.error = Some(e.to_string()),
    }
    t
}

/// The first `"key":N` integer of a metrics document.
pub fn json_u64(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .ok()
}

/// The in-process report of `program` run as `spec` describes (no progress
/// tap), serialized as the server serializes it.
pub fn local_report(spec: &JobSpec, program: &Program) -> Result<String, String> {
    let session = spec
        .apply(xfstream::session())
        .and_then(|b| b.build())
        .map_err(|e| e.to_string())?;
    let outcome = program
        .run_in(&session, spec.mode().map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    serde_json::to_string(&outcome.report).map_err(|e| e.to_string())
}

/// A recorded trace uploaded as a job.
pub struct Upload {
    pub spec: JobSpec,
    pub bytes: Vec<u8>,
    pub failure_points: u64,
}

/// One entry of the job mix.
#[derive(Debug, Clone, Copy)]
pub enum Job {
    Spec(usize),
    Upload(usize),
}

/// The seeded job mix: a pool of distinct specs, the uploads, and the
/// sequence the clients consume.
///
/// The shape follows the repository's documented server workload, which
/// submits B-Tree, Hashmap-TX and C-Tree at 100 ops cold and then
/// re-submits the identical specs warm. The sequence is made of blocks of
/// 7 jobs: the three programs as new specs (cold, writing the class cache),
/// one `.xft` upload, then the same three specs again (warm, reading it).
/// A new spec differs from every earlier one in ops (within
/// [`OPS_SPREAD`] of 100) or domain (ADR or eADR); each program walks its
/// variants in seeded order. The upload between the halves keeps a warm
/// re-submit from starting before its cold run is done.
pub struct Mix {
    pub programs: Vec<Program>,
    pub specs: Vec<JobSpec>,
    pub uploads: Vec<Upload>,
    pub jobs: Vec<Job>,
}

/// How far a new spec's ops may lie from [`SERVE_OPS`]. With two domains
/// this gives each program 42 distinct specs, so the first 42 blocks (294
/// jobs) are all distinct; later blocks repeat them and run warm.
const OPS_SPREAD: u64 = 10;

/// Records an upload: a detection of `program` with full trace recording,
/// encoded as `.xft`.
fn record_upload(program: &Program, index: usize) -> Upload {
    let session = xfstream::session()
        .config(program.config())
        .record_repro(true)
        .build()
        .expect("recording configuration is valid");
    let outcome = program
        .run_in(&session, Mode::Batch)
        .expect("recording run succeeds");
    let run = outcome.recorded.expect("trace recorded");
    let bytes = xfstream::encode_recorded_run(&run).expect("encode the recorded run");
    Upload {
        spec: JobSpec {
            trace: Some(format!("upload-{index}.xft")),
            mode: Some("parallel".to_owned()),
            pruning: Some("equivalence".to_owned()),
            ..JobSpec::default()
        },
        bytes,
        failure_points: run.failure_points.len() as u64,
    }
}

impl Mix {
    /// Draws the mix from `seed`, recording the uploads.
    pub fn new(seed: u64) -> Mix {
        let mut rng = Rng::new(seed);
        let uploads = SERVE_KINDS
            .iter()
            .enumerate()
            .map(|(i, &kind)| record_upload(&serve_program(kind, SERVE_OPS, Adr), i))
            .collect();
        let mut variants: Vec<(u64, PersistDomain)> = (SERVE_OPS - OPS_SPREAD
            ..=SERVE_OPS + OPS_SPREAD)
            .flat_map(|ops| [(ops, Adr), (ops, Eadr)])
            .collect();
        let mut programs = Vec::new();
        for kind in SERVE_KINDS {
            rng.shuffle(&mut variants);
            programs.extend(variants.iter().map(|&(ops, d)| serve_program(kind, ops, d)));
        }
        let per_kind = variants.len();
        let mut kinds: Vec<usize> = (0..SERVE_KINDS.len()).collect();
        let mut jobs = Vec::with_capacity(MIX_LEN);
        for block in 0..MIX_LEN.div_ceil(2 * kinds.len() + 1) {
            rng.shuffle(&mut kinds);
            let new: Vec<Job> = kinds
                .iter()
                .map(|k| Job::Spec(k * per_kind + block % per_kind))
                .collect();
            jobs.extend(&new);
            jobs.push(Job::Upload(rng.below(SERVE_KINDS.len() as u64) as usize));
            jobs.extend(&new);
        }
        Mix {
            specs: programs.iter().map(Program::job_spec).collect(),
            programs,
            uploads,
            jobs,
        }
    }

    fn request(&self, job: Job) -> (&JobSpec, Option<&[u8]>) {
        match job {
            Job::Spec(i) => (&self.specs[i], None),
            Job::Upload(u) => (&self.uploads[u].spec, Some(&self.uploads[u].bytes[..])),
        }
    }

    /// Failure points a successful job resolved.
    pub fn failure_points(&self, job: Job, t: &JobTimes) -> u64 {
        match job {
            Job::Spec(_) => t
                .metrics_json
                .as_deref()
                .and_then(|m| json_u64(m, "failure_points"))
                .unwrap_or(0),
            Job::Upload(u) => self.uploads[u].failure_points,
        }
    }

    /// The in-process reference report of `job`.
    pub fn reference(&self, job: Job) -> Result<String, String> {
        match job {
            Job::Spec(i) => local_report(&self.specs[i], &self.programs[i]),
            Job::Upload(u) => {
                let report = xfstream::analyze_xft(&self.uploads[u].bytes[..], true)
                    .map_err(|e| e.to_string())?;
                serde_json::to_string(&report).map_err(|e| e.to_string())
            }
        }
    }
}

/// Runs the closed loop for `seconds`: each client submits its next job
/// only after the previous one is DONE. Returns every completed job with
/// its timestamps, in completion order, and the window's wall time.
pub fn closed_loop(mix: &Mix, endpoint: &str, seconds: f64) -> (Vec<(Job, JobTimes)>, Duration) {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::new());
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                while start.elapsed() < deadline {
                    let job = mix.jobs[next.fetch_add(1, Ordering::Relaxed) % mix.jobs.len()];
                    let (spec, upload) = mix.request(job);
                    let t = submit(endpoint, spec, upload);
                    done.lock().expect("job log").push((job, t));
                }
            });
        }
    });
    let window = start.elapsed();
    (done.into_inner().expect("job log"), window)
}

/// Checks every job against the in-process reference of its spec, computed
/// once per distinct spec. Errors, rejections and non-zero exit codes count
/// as failures.
pub fn verify(mix: &Mix, jobs: &[(Job, JobTimes)]) -> (Tally, Vec<bool>) {
    let mut references: HashMap<String, Result<String, String>> = HashMap::new();
    let mut tally = Tally::default();
    let oks = jobs
        .iter()
        .map(|(job, t)| {
            let key = format!("{job:?}");
            let reference = references.entry(key).or_insert_with(|| mix.reference(*job));
            let ok = t.error.is_none()
                && t.exit_code == Some(0)
                && t.done.is_some()
                && matches!((reference, &t.report_json), (Ok(r), Some(got)) if r == got);
            tally.check(ok, || format!("server job {job:?}: {:?}", t.error));
            ok
        })
        .collect();
    (tally, oks)
}
