//! Run options that were removed are rejected, not ignored: sampled
//! pruning and the switch that let post-failure panics unwind the run.
//! Every surface (the flag parser, a `--job` file, the JSON job codec)
//! refuses them with a typed configuration error, and the CLI exits 1.

use std::process::Command;

use xfd::xfdetector::jobspec::parse_pruning;
use xfd::xfdetector::{ConfigError, JobSpec, XfError};

#[test]
fn sampled_pruning_is_an_invalid_pruning_value() {
    let err = parse_pruning("sampled:0.5").unwrap_err();
    assert!(
        matches!(
            err,
            ConfigError::Invalid {
                what: "pruning",
                ..
            }
        ),
        "{err:?}"
    );
    assert!(err.to_string().contains("off|equivalence"), "{err}");
    let spec = JobSpec::from_json(r#"{"workload": "btree", "pruning": "sampled:0.5"}"#)
        .expect("the pruning field is a string");
    let err = XfError::from(spec.validate().unwrap_err());
    assert!(
        matches!(
            err,
            XfError::Config(ConfigError::Invalid {
                what: "pruning",
                ..
            })
        ),
        "{err:?}"
    );
    assert_eq!(err.exit_code(), 1);
}

#[test]
fn the_catch_panics_job_key_is_unknown() {
    let err = JobSpec::from_json(r#"{"workload": "btree", "catch_panics": false}"#).unwrap_err();
    assert!(matches!(err, ConfigError::Invalid { .. }), "{err:?}");
    assert!(err.to_string().contains("catch_panics"), "{err}");
    assert_eq!(XfError::from(err).exit_code(), 1);
}

/// Runs `xfd report` on a tiny B-Tree with `args` and returns the exit
/// code and stderr.
fn report(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_xfd"))
        .args(["report", "--workload", "btree", "--ops", "2"])
        .args(args)
        .output()
        .expect("xfd runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn cli_rejects_retired_options_with_exit_1() {
    let dir = std::env::temp_dir().join(format!("xfd-retired-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sampled_job = dir.join("sampled.json");
    std::fs::write(&sampled_job, r#"{"pruning": "sampled:0.5"}"#).unwrap();
    let panics_job = dir.join("panics.json");
    std::fs::write(&panics_job, r#"{"catch_panics": false}"#).unwrap();
    let sampled_job = sampled_job.display().to_string();
    let panics_job = panics_job.display().to_string();

    let cases: [(&[&str], &str); 4] = [
        (&["--pruning", "sampled:0.5"], "sampled:0.5"),
        (&["--no-catch-panics"], "--no-catch-panics"),
        (&["--job", &sampled_job], "sampled:0.5"),
        (&["--job", &panics_job], "catch_panics"),
    ];
    for (args, named) in cases {
        let (code, stderr) = report(args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
