//! The campaign server: a persistent daemon that accepts detection jobs
//! over TCP or Unix-domain sockets, queues them for a fixed executor
//! pool and streams each job's events to any number of watchers.
//!
//! # Architecture
//!
//! ```text
//!            accept loop                executor pool (N threads)
//!  client ──► handler thread ──► queue ──► run_job ──► events
//!                 │                            │
//!                 └──── event cursor ◄─── Shared{Mutex, Condvar}
//! ```
//!
//! Every connection gets its own handler thread; every job's events are
//! retained in order, so a late `WATCH` replays the full history before
//! tailing live frames. Finished jobs are retained up to
//! [`RETAINED_DONE_JOBS`]; older ones are forgotten (a `WATCH` of one is
//! rejected as unknown), unless a watcher is still streaming them, so a
//! long-lived server's memory does not grow with the jobs it has served.
//! Executors drain the queue on shutdown (finishing the job they hold) and
//! are joined before `run` returns — no orphaned workers.
//!
//! # Cross-run cache
//!
//! With a `--cache-dir`, the server arms the [`xfdetector`] post-trace
//! store as a class cache on every eligible job. The store file is named
//! by the FNV-1a hash of the job's *program digest* (workload, ops, init
//! and bugs, or the content hash of an uploaded artifact) together with
//! its run fingerprint ([`xfdetector::run_fingerprint`]: every
//! report-affecting configuration axis, the same axes the store header
//! checks). A repeat campaign therefore replays the failure points the
//! previous run checked instead of executing them, and the same program
//! under two configurations (ADR and eADR, say) keeps two files instead of
//! replacing one header with the other on every alternation. A header
//! mismatch still falls back to a cold start. Two jobs appending to one
//! file at once is benign: records are self-contained and written whole,
//! so a race can only lose records, and reports are unaffected either
//! way.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

use xfdetector::JobSpec;

use crate::job::{resolve_bugs, resolve_workload, run_job, Emitter};
use xftrace::fnv::fnv1a;

use crate::proto::{
    decode_submit, encode_rejected, read_frame, write_frame, ArtifactKind, JobEvent, TAG_REJECTED,
    TAG_SHUTDOWN, TAG_STATUS, TAG_STATUS_REPLY, TAG_SUBMIT, TAG_WATCH,
};

/// Server tuning knobs, from `xfd serve` flags.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Number of executor threads running jobs (each job additionally
    /// shards its failure points across the session's own worker pool).
    pub exec_workers: usize,
    /// Directory for cross-run post-trace store files; `None` disables
    /// the cache.
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            exec_workers: 2,
            cache_dir: None,
        }
    }
}

/// A connected byte stream over either transport.
pub enum AnyStream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl AnyStream {
    /// Connects to a TCP endpoint (`host:port`).
    pub fn connect_tcp(addr: &str) -> io::Result<Self> {
        TcpStream::connect(addr).map(AnyStream::Tcp)
    }

    /// Connects to a Unix-domain socket path.
    #[cfg(unix)]
    pub fn connect_unix(path: &str) -> io::Result<Self> {
        UnixStream::connect(path).map(AnyStream::Unix)
    }
}

impl Read for AnyStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            AnyStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for AnyStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            AnyStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.flush(),
        }
    }
}

enum AnyListener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl AnyListener {
    fn accept(&self) -> io::Result<AnyStream> {
        match self {
            AnyListener::Tcp(l) => l.accept().map(|(s, _)| AnyStream::Tcp(s)),
            #[cfg(unix)]
            AnyListener::Unix(l) => l.accept().map(|(s, _)| AnyStream::Unix(s)),
        }
    }
}

/// Finished jobs whose records (spec and event history, ~2.4 KB each) a
/// server keeps for late `WATCH`es and `STATUS`. Without a bound a
/// long-lived server grew by every job it had ever served.
const RETAINED_DONE_JOBS: usize = 256;

/// One submitted job: its spec, optional artifact, and the ordered event
/// history every watcher replays from.
struct JobRecord {
    spec: JobSpec,
    /// The upload, until an executor takes it to run the job.
    artifact: Option<(ArtifactKind, Vec<u8>)>,
    /// Raw `(tag, payload)` frames, retained for late watchers.
    events: Vec<(u8, Vec<u8>)>,
    done: bool,
    /// Connections streaming this job; a watched record is never evicted.
    watchers: usize,
}

#[derive(Default)]
struct SharedState {
    queue: VecDeque<u64>,
    jobs: BTreeMap<u64, JobRecord>,
    /// Finished job ids, oldest first: the eviction order.
    finished: VecDeque<u64>,
    /// Finished jobs whose records were evicted (still counted by
    /// `STATUS`).
    evicted: usize,
    next_id: u64,
    shutdown: bool,
}

impl SharedState {
    /// Forgets the oldest finished jobs beyond [`RETAINED_DONE_JOBS`],
    /// stopping at the first one a watcher is still streaming.
    fn evict_finished(&mut self) {
        while self.finished.len() > RETAINED_DONE_JOBS {
            let oldest = self.finished[0];
            if self.jobs.get(&oldest).is_some_and(|j| j.watchers > 0) {
                return;
            }
            self.finished.pop_front();
            self.jobs.remove(&oldest);
            self.evicted += 1;
        }
    }
}

struct Shared {
    state: Mutex<SharedState>,
    cv: Condvar,
    opts: ServerOptions,
    /// The bound endpoint, kept so `SHUTDOWN` can self-connect to wake
    /// the blocking accept loop.
    endpoint: String,
    unix: bool,
}

/// Appends one event to a job's history and wakes every tailing watcher
/// and idle executor.
#[derive(Clone)]
struct JobEmitter {
    shared: Arc<Shared>,
    id: u64,
}

impl Emitter for JobEmitter {
    fn emit(&self, ev: JobEvent) {
        let (tag, payload) = ev.to_frame();
        let mut st = self.shared.state.lock().expect("server state poisoned");
        if let Some(job) = st.jobs.get_mut(&self.id) {
            job.events.push((tag, payload));
        }
        drop(st);
        self.shared.cv.notify_all();
    }
}

/// Creates the cache directory up front so an unwritable `--cache-dir`
/// fails the bind, not every subsequent job.
fn ensure_cache_dir(opts: &ServerOptions) -> io::Result<()> {
    match &opts.cache_dir {
        Some(dir) => std::fs::create_dir_all(dir),
        None => Ok(()),
    }
}

/// The campaign server. Bind, then [`run`](Server::run) until a client
/// sends `SHUTDOWN`.
pub struct Server {
    listener: AnyListener,
    endpoint: String,
    shared: Arc<Shared>,
    /// Socket path to unlink on drop (Unix transport only).
    cleanup: Option<PathBuf>,
}

impl Server {
    /// Binds a TCP endpoint (`host:port`; port 0 picks a free port).
    pub fn bind_tcp(addr: &str, opts: ServerOptions) -> io::Result<Self> {
        ensure_cache_dir(&opts)?;
        let listener = TcpListener::bind(addr)?;
        let endpoint = listener.local_addr()?.to_string();
        Ok(Server {
            listener: AnyListener::Tcp(listener),
            endpoint: endpoint.clone(),
            shared: Arc::new(Shared {
                state: Mutex::new(SharedState::default()),
                cv: Condvar::new(),
                opts,
                endpoint,
                unix: false,
            }),
            cleanup: None,
        })
    }

    /// Binds a Unix-domain socket, replacing a stale socket file.
    #[cfg(unix)]
    pub fn bind_unix(path: &str, opts: ServerOptions) -> io::Result<Self> {
        ensure_cache_dir(&opts)?;
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        Ok(Server {
            listener: AnyListener::Unix(listener),
            endpoint: path.to_owned(),
            shared: Arc::new(Shared {
                state: Mutex::new(SharedState::default()),
                cv: Condvar::new(),
                opts,
                endpoint: path.to_owned(),
                unix: true,
            }),
            cleanup: Some(PathBuf::from(path)),
        })
    }

    /// The bound endpoint: the actual `host:port` (after port-0
    /// resolution) or the socket path.
    #[must_use]
    pub fn local_endpoint(&self) -> &str {
        &self.endpoint
    }

    /// Serves until a client sends `SHUTDOWN`: spawns the executor pool,
    /// accepts connections, then drains the queue and joins every thread.
    pub fn run(self) -> io::Result<()> {
        let mut executors = Vec::new();
        for i in 0..self.shared.opts.exec_workers.max(1) {
            let shared = Arc::clone(&self.shared);
            executors.push(
                thread::Builder::new()
                    .name(format!("xfserve-exec-{i}"))
                    .spawn(move || executor_loop(&shared))?,
            );
        }

        let mut handlers: Vec<thread::JoinHandle<()>> = Vec::new();
        loop {
            let conn = self.listener.accept()?;
            if self
                .shared
                .state
                .lock()
                .expect("server state poisoned")
                .shutdown
            {
                // The shutdown handler self-connects to unblock this
                // accept; the connection carries no request.
                break;
            }
            let shared = Arc::clone(&self.shared);
            handlers.push(
                thread::Builder::new()
                    .name("xfserve-conn".to_owned())
                    .spawn(move || handle_connection(conn, &shared))?,
            );
            // Reap finished handlers so a long-lived server does not
            // accumulate join handles.
            handlers.retain(|h| !h.is_finished());
        }

        self.shared.cv.notify_all();
        for h in executors {
            let _ = h.join();
        }
        for h in handlers {
            let _ = h.join();
        }
        if let Some(path) = &self.cleanup {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

/// Executor thread: pops queued jobs until shutdown *and* an empty queue
/// — queued work is drained, the held job finishes, then the thread
/// exits.
fn executor_loop(shared: &Arc<Shared>) {
    loop {
        let id = {
            let mut st = shared.state.lock().expect("server state poisoned");
            loop {
                if let Some(id) = st.queue.pop_front() {
                    break id;
                }
                if st.shutdown {
                    return;
                }
                st = shared.cv.wait(st).expect("server state poisoned");
            }
        };
        // The executor is the artifact's only reader, so it moves the
        // upload out of the record rather than copying it: the server
        // keeps no upload bytes once a job is dispatched.
        let (spec, artifact) = {
            let mut st = shared.state.lock().expect("server state poisoned");
            let job = st.jobs.get_mut(&id).expect("queued job has a record");
            (job.spec.clone(), job.artifact.take())
        };
        let emitter = JobEmitter {
            shared: Arc::clone(shared),
            id,
        };
        let exit_code = match run_job(&spec, artifact, &emitter) {
            Ok(code) => code,
            Err(e) => {
                emitter.emit(JobEvent::Error {
                    message: e.to_string(),
                });
                e.exit_code()
            }
        };
        // The DONE frame and the done flag must flip together: a client
        // that saw DONE and immediately asks STATUS must find the job
        // counted as done, not running.
        let frame = JobEvent::Done { exit_code }.to_frame();
        let mut st = shared.state.lock().expect("server state poisoned");
        if let Some(job) = st.jobs.get_mut(&id) {
            job.events.push(frame);
            job.done = true;
        }
        st.finished.push_back(id);
        st.evict_finished();
        drop(st);
        shared.cv.notify_all();
    }
}

/// Validates and normalizes a submitted spec server-side, arming the
/// cross-run class cache when a cache directory is configured.
fn prepare(
    spec_json: &str,
    artifact: Option<&(ArtifactKind, Vec<u8>)>,
    opts: &ServerOptions,
) -> Result<JobSpec, xfdetector::XfError> {
    let mut spec = JobSpec::from_json(spec_json)?;
    // Server defaults: campaigns want wall-clock throughput and
    // equivalence pruning.
    if spec.mode.is_none() {
        spec.mode = Some("parallel".to_owned());
    }
    if spec.pruning.is_none() {
        spec.pruning = Some("equivalence".to_owned());
    }
    spec.validate()?;
    spec.require_source()?;
    // Early rejection for named workloads: resolve the registry name and
    // bug list now, so a bad submission fails at SUBMIT time with the
    // same typed error the CLI raises, not mid-execution.
    if spec.workload.is_some() {
        let kind = resolve_workload(&spec)?;
        resolve_bugs(&spec, kind)?;
    }
    // Arm the cross-run store: keyed by the program digest (or uploaded
    // content) and the run fingerprint, namespaced per schedule plan
    // inside the store. Every mode serves it, since the batch, stream and
    // parallel drivers share one planner. Explicit cache/journal choices
    // in the spec win over the server default.
    if let Some(dir) = &opts.cache_dir {
        if spec.class_cache.is_none() && spec.journal.is_none() && spec.resume.is_none() {
            let digest = match artifact {
                Some((_, bytes)) => format!("content:{:016x}", fnv1a(bytes)),
                None => spec.digest(),
            };
            let fingerprint = xfdetector::run_fingerprint(
                spec.workload.as_deref().unwrap_or(""),
                &spec.config()?,
            );
            let key = format!("{digest}\n{fingerprint}");
            let file = dir.join(format!("{:016x}.xfc", fnv1a(key.as_bytes())));
            spec.class_cache = Some(file.to_string_lossy().into_owned());
            spec.cache_digest = Some(digest);
        }
    }
    Ok(spec)
}

/// Handles one connection: a single request frame, then its response
/// stream.
fn handle_connection(mut conn: AnyStream, shared: &Arc<Shared>) {
    let frame = match read_frame(&mut conn) {
        Ok(Some(f)) => f,
        Ok(None) | Err(_) => return,
    };
    let _ = match frame {
        (TAG_SUBMIT, payload) => handle_submit(&mut conn, shared, &payload),
        (TAG_WATCH, payload) => handle_watch(&mut conn, shared, &payload),
        (TAG_STATUS, _) => handle_status(&mut conn, shared),
        (TAG_SHUTDOWN, _) => handle_shutdown(&mut conn, shared),
        _ => Ok(()),
    };
}

fn handle_submit(conn: &mut AnyStream, shared: &Arc<Shared>, payload: &[u8]) -> io::Result<()> {
    let (spec_json, artifact) = match decode_submit(payload) {
        Ok(x) => x,
        Err(e) => {
            return write_frame(
                conn,
                TAG_REJECTED,
                &encode_rejected(106, &format!("malformed SUBMIT payload: {e}")),
            );
        }
    };
    let spec = match prepare(&spec_json, artifact.as_ref(), &shared.opts) {
        Ok(spec) => spec,
        Err(e) => {
            return write_frame(
                conn,
                TAG_REJECTED,
                &encode_rejected(e.code(), &e.to_string()),
            );
        }
    };
    let id = {
        let mut st = shared.state.lock().expect("server state poisoned");
        if st.shutdown {
            return write_frame(
                conn,
                TAG_REJECTED,
                &encode_rejected(103, "server is shutting down"),
            );
        }
        let id = st.next_id;
        st.next_id += 1;
        st.jobs.insert(
            id,
            JobRecord {
                spec,
                artifact,
                events: Vec::new(),
                done: false,
                // The submitting connection streams the job.
                watchers: 1,
            },
        );
        st.queue.push_back(id);
        id
    };
    shared.cv.notify_all();
    stream_events(conn, shared, id)
}

fn handle_watch(conn: &mut AnyStream, shared: &Arc<Shared>, payload: &[u8]) -> io::Result<()> {
    let id = crate::proto::Dec::new(payload).u64()?;
    let known = match shared
        .state
        .lock()
        .expect("server state poisoned")
        .jobs
        .get_mut(&id)
    {
        Some(job) => {
            job.watchers += 1;
            true
        }
        None => false,
    };
    if !known {
        return write_frame(
            conn,
            TAG_REJECTED,
            &encode_rejected(12, &format!("unknown job id {id}")),
        );
    }
    stream_events(conn, shared, id)
}

/// Acknowledges and streams job `id` to a registered watcher
/// ([`JobRecord::watchers`]), then releases the record for eviction,
/// whether or not the stream completed.
fn stream_events(conn: &mut AnyStream, shared: &Arc<Shared>, id: u64) -> io::Result<()> {
    let (tag, p) = JobEvent::Accepted { id }.to_frame();
    let streamed = write_frame(conn, tag, &p).and_then(|()| tail_events(conn, shared, id));
    let mut st = shared.state.lock().expect("server state poisoned");
    if let Some(job) = st.jobs.get_mut(&id) {
        job.watchers -= 1;
    }
    st.evict_finished();
    streamed
}

/// Replays a job's retained events from the start, then tails live
/// frames until the job is done. The cursor walks the shared event log
/// under the state lock; frame writes happen outside it.
fn tail_events(conn: &mut AnyStream, shared: &Arc<Shared>, id: u64) -> io::Result<()> {
    let mut cursor = 0usize;
    loop {
        let (batch, done) = {
            let mut st = shared.state.lock().expect("server state poisoned");
            loop {
                let job = match st.jobs.get(&id) {
                    Some(j) => j,
                    None => return Ok(()),
                };
                if job.events.len() > cursor || job.done {
                    break (job.events[cursor..].to_vec(), job.done);
                }
                st = shared.cv.wait(st).expect("server state poisoned");
            }
        };
        for (tag, payload) in &batch {
            write_frame(conn, *tag, payload)?;
        }
        cursor += batch.len();
        if done {
            return Ok(());
        }
    }
}

fn handle_status(conn: &mut AnyStream, shared: &Arc<Shared>) -> io::Result<()> {
    let st = shared.state.lock().expect("server state poisoned");
    let queued = st.queue.len();
    let done = st.jobs.values().filter(|j| j.done).count();
    let running = st.jobs.len().saturating_sub(queued).saturating_sub(done);
    let json = format!(
        "{{\"jobs\":{},\"queued\":{queued},\"running\":{running},\"done\":{}}}",
        st.jobs.len() + st.evicted,
        done + st.evicted,
    );
    drop(st);
    write_frame(conn, TAG_STATUS_REPLY, json.as_bytes())
}

fn handle_shutdown(conn: &mut AnyStream, shared: &Arc<Shared>) -> io::Result<()> {
    {
        let mut st = shared.state.lock().expect("server state poisoned");
        st.shutdown = true;
    }
    shared.cv.notify_all();
    // The accept loop is blocked in `accept`; open (and drop) a
    // connection to it so it observes the shutdown flag.
    if shared.unix {
        #[cfg(unix)]
        {
            let _ = UnixStream::connect(&shared.endpoint);
        }
    } else {
        let _ = TcpStream::connect(&shared.endpoint);
    }
    let (tag, p) = JobEvent::Done { exit_code: 0 }.to_frame();
    write_frame(conn, tag, &p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finished(watchers: usize) -> JobRecord {
        JobRecord {
            spec: JobSpec::default(),
            artifact: None,
            events: vec![(0, vec![0; 16])],
            done: true,
            watchers,
        }
    }

    #[test]
    fn finished_jobs_are_bounded_but_watched_ones_stay() {
        let mut st = SharedState::default();
        let total = RETAINED_DONE_JOBS as u64 + 10;
        for id in 0..total {
            // Job 3 still has a watcher streaming it.
            st.jobs.insert(id, finished(usize::from(id == 3)));
            st.finished.push_back(id);
            st.evict_finished();
        }
        // Eviction stops at the watched job: 0..3 went, 3.. stayed.
        assert_eq!(st.evicted, 3);
        assert!(st.jobs.contains_key(&3));
        st.jobs.get_mut(&3).unwrap().watchers = 0;
        st.evict_finished();
        assert_eq!(st.evicted, 10);
        assert_eq!(st.jobs.len(), RETAINED_DONE_JOBS);
        assert_eq!(st.jobs.keys().next(), Some(&10), "the oldest go first");
    }
}
