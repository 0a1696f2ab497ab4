//! End-to-end campaign-server tests over loopback TCP: submit, watch,
//! rejection, the cross-run class cache, and clean shutdown.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::thread;

use xfd_workloads::bugs::{BugSet, WorkloadKind};
use xfdetector::{JobSpec, Mode, XfError};
use xfserve::proto::{encode_submit, read_frame, write_frame, TAG_STATUS, TAG_SUBMIT};
use xfserve::{AnyStream, ArtifactKind, Client, JobEvent, Server, ServerOptions};
use xftrace::varint::write_varint;

/// Binds a server on an ephemeral port and runs it on its own thread.
/// Returns the endpoint and the join handle for the accept loop.
fn start_server(opts: ServerOptions) -> (String, thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind_tcp("127.0.0.1:0", opts).expect("bind");
    let endpoint = server.local_endpoint().to_owned();
    let handle = thread::spawn(move || server.run());
    (endpoint, handle)
}

fn client(endpoint: &str) -> Client {
    Client::new(AnyStream::connect_tcp(endpoint).expect("connect"))
}

/// A small deterministic btree job with an injected bug.
fn btree_spec() -> JobSpec {
    JobSpec {
        workload: Some("btree".to_owned()),
        ops: Some(8),
        bugs: vec!["BtNoAddRootPtr".to_owned()],
        mode: Some("parallel".to_owned()),
        pruning: Some("equivalence".to_owned()),
        ..JobSpec::default()
    }
}

/// Submits a job and collects its event stream; returns the assigned
/// job id, the events and the exit code. (`ACCEPTED` is consumed by
/// [`Client::submit`] and does not appear in the stream.)
fn run_to_done(c: &mut Client, spec: &JobSpec) -> (u64, Vec<JobEvent>, u8) {
    let id = c.submit(spec, None).expect("submit");
    let mut events = Vec::new();
    let code = c
        .stream_job(&mut |ev: &JobEvent| events.push(ev.clone()))
        .expect("stream");
    (id, events, code)
}

fn report_of(events: &[JobEvent]) -> &str {
    events
        .iter()
        .find_map(|ev| match ev {
            JobEvent::Report { json } => Some(json.as_str()),
            _ => None,
        })
        .expect("job emitted a report")
}

fn metrics_of(events: &[JobEvent]) -> &str {
    events
        .iter()
        .find_map(|ev| match ev {
            JobEvent::Metrics { json } => Some(json.as_str()),
            _ => None,
        })
        .expect("job emitted metrics")
}

/// Pulls the first `"key":N` integer out of a JSON document.
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

/// A unique scratch directory for this test process.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xfserve-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn submit_runs_a_job_and_streams_its_report() {
    let (ep, handle) = start_server(ServerOptions::default());
    let (id, events, code) = run_to_done(&mut client(&ep), &btree_spec());
    assert_eq!((id, code), (0, 0));
    let report = report_of(&events);
    assert!(report.contains("findings"), "report JSON: {report}");
    let metrics = metrics_of(&events);
    assert!(json_u64(metrics, "post_runs") > 0);

    client(&ep).shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn watch_replays_a_finished_job_from_the_start() {
    let (ep, handle) = start_server(ServerOptions::default());
    let (id, events, _) = run_to_done(&mut client(&ep), &btree_spec());
    let first = report_of(&events).to_owned();

    // Re-attach on a fresh connection: the full history replays.
    let mut w = client(&ep);
    w.watch(id).expect("watch");
    let mut replayed = Vec::new();
    let code = w
        .stream_job(&mut |ev: &JobEvent| replayed.push(ev.clone()))
        .expect("stream");
    assert_eq!(code, 0);
    assert_eq!(report_of(&replayed), first);

    client(&ep).shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");
}

/// A recorded btree run, encoded as an `.xft` upload.
fn xft_upload() -> Vec<u8> {
    let session = xfdetector::Session::builder()
        .record_repro(true)
        .build()
        .expect("recording session");
    let w = xfd_workloads::build(WorkloadKind::Btree, 8, BugSet::default());
    let run = session
        .run(w, Mode::Batch)
        .expect("recording run")
        .recorded
        .expect("trace recorded");
    xfstream::encode_recorded_run(&run).expect("encode")
}

#[test]
fn uploads_replay_identically_after_the_job_has_run() {
    let (ep, handle) = start_server(ServerOptions::default());
    let xft = xft_upload();
    let fuzz = xffuzz::generate(1, 0, 12).to_text();
    let uploads = [
        (
            JobSpec {
                trace: Some("upload.xft".to_owned()),
                ..JobSpec::default()
            },
            ArtifactKind::Xft,
            xft.as_slice(),
        ),
        (
            JobSpec {
                program: Some("upload.fuzz".to_owned()),
                ..JobSpec::default()
            },
            ArtifactKind::Fuzz,
            fuzz.as_bytes(),
        ),
    ];

    for (spec, kind, bytes) in uploads {
        let mut c = client(&ep);
        let id = c.submit(&spec, Some((kind, bytes))).expect("submit");
        let mut events = Vec::new();
        let code = c
            .stream_job(&mut |ev: &JobEvent| events.push(ev.clone()))
            .expect("stream");
        assert_eq!(code, 0, "{kind:?} upload: {events:?}");

        // The server dropped the upload once the job ran; a late watcher
        // still sees the same history, REPORT bytes included.
        let mut w = client(&ep);
        w.watch(id).expect("watch");
        let mut replayed = Vec::new();
        let replay_code = w
            .stream_job(&mut |ev: &JobEvent| replayed.push(ev.clone()))
            .expect("stream");
        assert_eq!(replay_code, code);
        assert_eq!(report_of(&replayed), report_of(&events), "{kind:?} upload");
        assert_eq!(replayed, events, "{kind:?} upload");
    }

    let status = client(&ep).status().expect("status");
    assert!(status.contains("\"jobs\":2"), "status: {status}");
    assert!(status.contains("\"done\":2"), "status: {status}");

    client(&ep).shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn bad_jobs_are_rejected_with_the_cli_error_code() {
    let (ep, handle) = start_server(ServerOptions::default());

    // No source at all: the CLI's MissingSource (code 14, exit 1).
    let err = client(&ep).submit(&JobSpec::default(), None).unwrap_err();
    match err {
        XfError::Rejected { code, .. } => assert_eq!(code, 14),
        other => panic!("expected Rejected, got {other:?}"),
    }
    assert_eq!(err.exit_code(), 1);

    // Unknown workload name.
    let bogus = JobSpec {
        workload: Some("no_such_tree".to_owned()),
        ..JobSpec::default()
    };
    let err = client(&ep).submit(&bogus, None).unwrap_err();
    assert!(matches!(err, XfError::Rejected { code: 12, .. }), "{err:?}");

    // Watching a job that never existed.
    let err = client(&ep).watch(999).unwrap_err();
    assert!(matches!(err, XfError::Rejected { code: 12, .. }), "{err:?}");

    client(&ep).shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn repeat_submissions_hit_the_cross_run_cache() {
    let dir = scratch("cache");
    let (ep, handle) = start_server(ServerOptions {
        exec_workers: 2,
        cache_dir: Some(dir.clone()),
    });

    let (_, first, code1) = run_to_done(&mut client(&ep), &btree_spec());
    let (_, second, code2) = run_to_done(&mut client(&ep), &btree_spec());
    assert_eq!((code1, code2), (0, 0));

    // Headline invariant: byte-identical reports, drastically fewer
    // post-failure executions on the warm run.
    assert_eq!(report_of(&first), report_of(&second));
    let cold = metrics_of(&first);
    let warm = metrics_of(&second);
    assert_eq!(json_u64(cold, "cache_hits"), 0);
    assert!(json_u64(warm, "cache_hits") > 0, "warm metrics: {warm}");
    let (cold_posts, warm_posts) = (json_u64(cold, "post_runs"), json_u64(warm, "post_runs"));
    assert!(cold_posts > 0);
    assert!(
        warm_posts * 5 <= cold_posts,
        "expected >=5x fewer post runs: cold {cold_posts}, warm {warm_posts}"
    );

    // The same program under another persistence domain runs cold into a
    // file of its own: it must not evict the ADR classes.
    let eadr_spec = JobSpec {
        domain: Some("eadr".to_owned()),
        ..btree_spec()
    };
    let (_, eadr, code3) = run_to_done(&mut client(&ep), &eadr_spec);
    let (_, adr_again, code4) = run_to_done(&mut client(&ep), &btree_spec());
    assert_eq!((code3, code4), (0, 0));
    assert_eq!(json_u64(metrics_of(&eadr), "cache_hits"), 0);
    let adr_again_metrics = metrics_of(&adr_again);
    assert!(
        json_u64(adr_again_metrics, "cache_hits") > 0,
        "ADR after eADR must still be warm: {adr_again_metrics}"
    );
    assert_eq!(report_of(&adr_again), report_of(&first));

    // A stream job of the same program is served from the same file.
    let stream_spec = JobSpec {
        mode: Some("stream".to_owned()),
        ..btree_spec()
    };
    let (_, stream, code5) = run_to_done(&mut client(&ep), &stream_spec);
    assert_eq!(code5, 0);
    let stream_metrics = metrics_of(&stream);
    assert!(
        json_u64(stream_metrics, "cache_hits") > 0,
        "{stream_metrics}"
    );
    assert_eq!(json_u64(stream_metrics, "post_runs"), 0, "{stream_metrics}");
    assert_eq!(report_of(&stream), report_of(&first));

    client(&ep).shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_oversize_length_prefix_fails_its_job_and_the_server_keeps_serving() {
    let (ep, handle) = start_server(ServerOptions::default());
    // `XFT1`, version 1, no flags, then a `FileDef` record whose varint
    // length claims 2^45 bytes of file name.
    let hostile = b"XFT1\x01\x00\x01\x80\x80\x80\x80\x80\x80\x08";
    let spec = JobSpec {
        trace: Some("hostile.xft".to_owned()),
        ..JobSpec::default()
    };
    let mut c = client(&ep);
    c.submit(&spec, Some((ArtifactKind::Xft, hostile)))
        .expect("submit");
    let mut events = Vec::new();
    let code = c
        .stream_job(&mut |ev: &JobEvent| events.push(ev.clone()))
        .expect("stream");
    assert_eq!(
        code,
        XfError::Codec(String::new()).exit_code(),
        "{events:?}"
    );
    assert!(
        events
            .iter()
            .any(|ev| matches!(ev, JobEvent::Error { message } if message.contains("codec"))),
        "{events:?}"
    );

    let (_, _, next) = run_to_done(&mut client(&ep), &btree_spec());
    assert_eq!(next, 0, "the server must survive a hostile upload");

    client(&ep).shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn status_counts_jobs_and_shutdown_drains_the_queue() {
    let (ep, handle) = start_server(ServerOptions {
        exec_workers: 1,
        cache_dir: None,
    });
    let (_, _, code) = run_to_done(&mut client(&ep), &btree_spec());
    assert_eq!(code, 0);
    let status = client(&ep).status().expect("status");
    assert!(status.contains("\"jobs\":1"), "status: {status}");
    assert!(status.contains("\"done\":1"), "status: {status}");

    client(&ep).shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");
}

/// Sends `bytes` as a raw request. With `hang_up` the connection drops
/// mid-frame; otherwise it half-closes and the server must close the
/// connection without answering.
fn send_raw(ep: &str, bytes: &[u8], hang_up: bool) {
    let mut s = TcpStream::connect(ep).expect("connect");
    s.write_all(bytes).expect("write");
    if hang_up {
        return;
    }
    s.shutdown(Shutdown::Write).expect("half-close");
    let mut reply = Vec::new();
    match s.read_to_end(&mut reply) {
        Ok(_) => assert!(reply.is_empty(), "answered a bad frame: {reply:?}"),
        Err(e) => assert_eq!(e.kind(), ErrorKind::ConnectionReset, "{e}"),
    }
}

#[test]
fn malformed_frames_close_the_connection_and_the_server_keeps_serving() {
    let (ep, handle) = start_server(ServerOptions::default());
    let header = |tag: u8, len: u64| {
        let mut b = vec![tag];
        write_varint(&mut b, len).unwrap();
        b
    };
    let mut submit = Vec::new();
    let payload = encode_submit(&btree_spec().to_json(), None);
    write_frame(&mut submit, TAG_SUBMIT, &payload).unwrap();
    let mut flipped = Vec::new();
    write_frame(&mut flipped, TAG_STATUS, b"").unwrap();
    *flipped.last_mut().unwrap() ^= 0x10;
    let mut overlong = vec![TAG_STATUS];
    overlong.extend_from_slice(&[0x80; 11]);
    let mut truncated = header(TAG_SUBMIT, 4096);
    truncated.extend_from_slice(&[0; 100]);
    let cases: [(&str, &[u8], ErrorKind, bool); 5] = [
        (
            "malformed length varint",
            &overlong,
            ErrorKind::InvalidData,
            false,
        ),
        (
            "length over the cap",
            &header(TAG_SUBMIT, (64 << 20) + 1),
            ErrorKind::InvalidData,
            false,
        ),
        ("flipped checksum", &flipped, ErrorKind::InvalidData, false),
        (
            "truncated payload",
            &truncated,
            ErrorKind::UnexpectedEof,
            false,
        ),
        (
            "disconnect mid-SUBMIT",
            &submit[..submit.len() / 2],
            ErrorKind::UnexpectedEof,
            true,
        ),
    ];
    for (what, bytes, kind, hang_up) in cases {
        let err = read_frame(&mut &bytes[..]).expect_err(what);
        assert_eq!(err.kind(), kind, "{what}: {err}");
        send_raw(&ep, bytes, hang_up);
        let status = client(&ep).status().expect("status after a bad frame");
        assert!(status.contains("\"jobs\":0"), "{what}: {status}");
    }

    client(&ep).shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");
}
