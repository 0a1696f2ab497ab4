//! Rejection parity for the persistence-domain axis: a malformed domain or
//! an out-of-range CXL reorder window is refused with the *same* typed
//! error — and the same exit status — whether it arrives through the
//! builder API, the `xfd` CLI, or a campaign server's SUBMIT frame. The
//! domain is configuration, so every surface must exit 1, never 2.

use std::process::Command;
use std::thread;

use xfd::pmem::{PersistDomain, DOMAIN_EXPECTED};
use xfd::xfdetector::jobspec::parse_domain;
use xfd::xfdetector::{ConfigError, JobSpec, XfError};
use xfd::xfserve::{AnyStream, Client, Server, ServerOptions};

const BAD_DOMAINS: [&str; 6] = ["cxl:0", "cxl:4097", "cxl:", "cxl:nan", "dax", ""];

/// The stable rejection code every surface must agree on.
fn rejection_code(value: &str) -> u32 {
    let err = parse_domain(value).expect_err("malformed domain must not parse");
    assert!(
        matches!(err, ConfigError::Invalid { what: "domain", .. }),
        "{value:?} must be an Invalid domain rejection, got {err:?}"
    );
    assert!(
        err.to_string().contains(DOMAIN_EXPECTED),
        "{value:?}: the rejection must spell out the accepted forms: {err}"
    );
    let wrapped = XfError::from(err);
    assert_eq!(wrapped.exit_code(), 1, "{value:?}: configuration exits 1");
    wrapped.code()
}

#[test]
fn malformed_domains_are_invalid_config_everywhere_in_process() {
    for value in BAD_DOMAINS {
        let code = rejection_code(value);

        // The JobSpec path (what `--job job.json` and the server decode).
        let spec = JobSpec {
            workload: Some("btree".to_owned()),
            ops: Some(2),
            domain: Some(value.to_owned()),
            ..JobSpec::default()
        };
        let err = spec.validate().expect_err("spec must not validate");
        assert_eq!(
            XfError::from(err).code(),
            code,
            "{value:?}: JobSpec and flag parsing must reject identically"
        );

        // The session-builder path (its config takes a parsed domain, so
        // only the window range can be wrong at this level).
        if let Some(window) = value.strip_prefix("cxl:").and_then(|w| w.parse().ok()) {
            let err = xfd::xfdetector::Session::builder()
                .config(xfd::xfdetector::XfConfig {
                    domain: PersistDomain::CxlGpf {
                        reorder_window: window,
                    },
                    ..Default::default()
                })
                .build()
                .expect_err("out-of-range window must not build");
            assert_eq!(XfError::from(err).code(), code, "{value:?}: builder");
        }
    }

    // The boundary values themselves are fine.
    for value in ["cxl:1", "cxl:4096", "adr", "eadr"] {
        parse_domain(value).unwrap_or_else(|e| panic!("{value:?} must parse: {e}"));
    }
}

#[test]
fn cli_rejects_invalid_domains_with_exit_1() {
    let xfd = env!("CARGO_BIN_EXE_xfd");
    for value in ["cxl:0", "cxl:4097", "dax"] {
        let out = Command::new(xfd)
            .args([
                "report",
                "--workload",
                "btree",
                "--ops",
                "2",
                "--domain",
                value,
            ])
            .output()
            .expect("xfd runs");
        assert_eq!(
            out.status.code(),
            Some(1),
            "--domain {value} must exit 1: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(DOMAIN_EXPECTED),
            "--domain {value}: stderr must carry the guidance: {stderr}"
        );
    }

    // Sanity: the same invocation with a valid domain succeeds.
    let out = Command::new(xfd)
        .args([
            "report",
            "--workload",
            "btree",
            "--ops",
            "2",
            "--domain",
            "eadr",
        ])
        .output()
        .expect("xfd runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "a valid domain must run: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn server_rejects_invalid_domains_with_the_cli_code() {
    let server = Server::bind_tcp(
        "127.0.0.1:0",
        ServerOptions {
            exec_workers: 1,
            cache_dir: None,
        },
    )
    .expect("bind");
    let endpoint = server.local_endpoint().to_owned();
    let server_thread = thread::spawn(move || server.run());

    for value in ["cxl:0", "cxl:4097", "dax"] {
        let expected = rejection_code(value);
        let spec = JobSpec {
            workload: Some("btree".to_owned()),
            ops: Some(2),
            domain: Some(value.to_owned()),
            ..JobSpec::default()
        };
        let mut client = Client::new(AnyStream::connect_tcp(&endpoint).expect("connect"));
        let err = client
            .submit(&spec, None)
            .expect_err("the server must reject the spec at SUBMIT");
        match &err {
            XfError::Rejected { code, message } => {
                assert_eq!(
                    *code, expected,
                    "{value:?}: REJECTED frame must carry the local code"
                );
                assert!(
                    message.contains(DOMAIN_EXPECTED),
                    "{value:?}: rejection message must carry the guidance: {message}"
                );
            }
            other => panic!("{value:?}: expected a typed rejection, got {other:?}"),
        }
        assert_eq!(
            err.exit_code(),
            1,
            "{value:?}: a remote rejection exits like the local one"
        );
    }

    let mut stopper = Client::new(AnyStream::connect_tcp(&endpoint).expect("connect"));
    stopper.shutdown().expect("shutdown");
    server_thread
        .join()
        .expect("server thread")
        .expect("server run");
}
