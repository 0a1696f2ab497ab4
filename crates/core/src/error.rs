//! The consolidated error type of the detection stack.
//!
//! Each layer historically grew its own failure vocabulary: `pmem` has
//! [`PmError`], the engines return [`EngineError`](crate::EngineError), the
//! codec wraps `io::Error`, and configuration mistakes either panicked or
//! were silently ignored. [`XfError`] is the single surface the redesigned
//! [`Session`](crate::Session) API exposes: every lower-level error converts
//! into it via `From`, so `?` composes across layers.

use std::fmt;
use std::io;

use pmem::PmError;

use crate::engine::EngineError;

/// A configuration rejected by [`XfConfig::validate`](crate::XfConfig::validate),
/// [`Session::builder`](crate::Session::builder) at build time, or the
/// [`JobSpec`](crate::JobSpec) and CLI parsers.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The streaming FIFO capacity must be at least one batch.
    ZeroStreamCapacity,
    /// An execution budget was supplied with no limit on any axis.
    EmptyBudget,
    /// `threads` must be at least 1 (thread 0 is the single-threaded
    /// degenerate case).
    ZeroThreads,
    /// The schedule strategy expands to an unreasonable number of concrete
    /// plans (an `exhaustive:K` bound too large for the thread count).
    ScheduleTooLarge,
    /// A flag or job field that requires a value was given none.
    MissingValue(&'static str),
    /// A flag or job field value failed to parse.
    Invalid {
        /// Which flag/field was malformed (e.g. `--threads`).
        what: &'static str,
        /// The offending value, verbatim.
        value: String,
        /// What a well-formed value looks like.
        expected: &'static str,
    },
    /// A name (flag, workload, bug id, mode…) that is not recognized.
    Unknown {
        /// What kind of name was being resolved (e.g. `flag`, `workload`).
        what: &'static str,
        /// The unrecognized name, verbatim.
        value: String,
    },
    /// Two flags/fields that cannot be combined.
    Conflict(&'static str),
    /// A job carried neither a workload name nor a trace source.
    MissingSource,
    /// A requested bug injection does not apply to the selected workload.
    BugWorkloadMismatch {
        /// The requested bug id.
        bug: String,
        /// The workload it does not apply to.
        workload: String,
    },
}

impl ConfigError {
    /// A small stable numeric code for this rejection, used by the server
    /// protocol's REJECTED frame and mirrored in the README's exit-code
    /// table. Codes are append-only: new variants take new numbers, and a
    /// removed variant's number is never reused (1 belonged to the retired
    /// dedup-requires-COW rejection, 4 to the retired rejection of a sampled
    /// pruning audit rate outside `[0, 1]`, 7 to the retired rejection of a
    /// class cache without equivalence pruning, 8 to the retired rejection
    /// of a class cache in stream mode).
    #[must_use]
    pub fn code(&self) -> u32 {
        match self {
            ConfigError::ZeroStreamCapacity => 2,
            ConfigError::EmptyBudget => 3,
            ConfigError::ZeroThreads => 5,
            ConfigError::ScheduleTooLarge => 6,
            ConfigError::MissingValue(_) => 10,
            ConfigError::Invalid { .. } => 11,
            ConfigError::Unknown { .. } => 12,
            ConfigError::Conflict(_) => 13,
            ConfigError::MissingSource => 14,
            ConfigError::BugWorkloadMismatch { .. } => 15,
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroStreamCapacity => {
                write!(f, "stream capacity must be at least 1 batch")
            }
            ConfigError::EmptyBudget => {
                write!(f, "a post-failure budget must limit at least one axis")
            }
            ConfigError::ZeroThreads => {
                write!(f, "threads must be at least 1")
            }
            ConfigError::ScheduleTooLarge => {
                write!(
                    f,
                    "schedule expands to too many plans (lower the exhaustive bound or thread count)"
                )
            }
            ConfigError::MissingValue(what) => {
                write!(f, "{what} requires a value")
            }
            ConfigError::Invalid {
                what,
                value,
                expected,
            } => {
                write!(f, "invalid {what} value {value:?} (expected {expected})")
            }
            ConfigError::Unknown { what, value } => {
                write!(f, "unknown {what}: {value:?}")
            }
            ConfigError::Conflict(msg) => write!(f, "{msg}"),
            ConfigError::MissingSource => {
                write!(f, "a job needs a workload name or a trace source")
            }
            ConfigError::BugWorkloadMismatch { bug, workload } => {
                write!(f, "bug {bug:?} does not apply to workload {workload:?}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Any error of the detection stack, as surfaced by the [`Session`] API.
///
/// [`Session`]: crate::Session
#[derive(Debug)]
#[non_exhaustive]
pub enum XfError {
    /// The PM pool could not be created.
    Pm(PmError),
    /// The workload's `setup` stage failed.
    Setup(String),
    /// The workload's `pre_failure` stage failed.
    PreFailure(String),
    /// The configuration was rejected at build time.
    Config(ConfigError),
    /// An I/O failure (post-trace store, metrics, trace files).
    Io(io::Error),
    /// A post-trace store opened to resume has a torn header or belongs
    /// to another run or format (fingerprint, digest or version mismatch,
    /// foreign magic).
    Journal(String),
    /// A trace codec failure, reported by the codec crate.
    Codec(String),
    /// A job was rejected by a campaign server (`xfd serve`). Carries the
    /// server-side error's [`code`](XfError::code) verbatim, so the client
    /// exits with the same status the local CLI would have.
    Rejected {
        /// The rejecting error's stable numeric code.
        code: u32,
        /// The rejecting error's rendered message.
        message: String,
    },
}

impl XfError {
    /// A small stable numeric code for this error, used by the server
    /// protocol's REJECTED frame. Configuration rejections forward the
    /// [`ConfigError::code`]; runtime failures use the 100-block. Codes are
    /// append-only and never reused: 105 belonged to the retired error for
    /// a stream run on a session without a stream engine, which every
    /// session now has.
    #[must_use]
    pub fn code(&self) -> u32 {
        match self {
            XfError::Config(e) => e.code(),
            XfError::Pm(_) => 100,
            XfError::Setup(_) => 101,
            XfError::PreFailure(_) => 102,
            XfError::Io(_) => 103,
            XfError::Journal(_) => 104,
            XfError::Codec(_) => 106,
            XfError::Rejected { code, .. } => *code,
        }
    }

    /// The process exit code the `xfd` CLI maps this error to: `1` for
    /// usage/configuration rejections, `2` for runtime failures. (Exit `3`
    /// — findings present — is not an error and never reaches this
    /// function.) Documented in the README's exit-code table; the server's
    /// REJECTED frames carry the finer-grained [`XfError::code`] alongside.
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        match self {
            XfError::Config(_) => 1,
            // Configuration codes live below the runtime 100-block, so a
            // remote rejection exits exactly like the local equivalent.
            XfError::Rejected { code, .. } if *code < 100 => 1,
            _ => 2,
        }
    }
}

impl fmt::Display for XfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XfError::Pm(e) => write!(f, "pool creation failed: {e}"),
            XfError::Setup(m) => write!(f, "workload setup failed: {m}"),
            XfError::PreFailure(m) => write!(f, "pre-failure execution failed: {m}"),
            XfError::Config(e) => write!(f, "invalid configuration: {e}"),
            XfError::Io(e) => write!(f, "i/o error: {e}"),
            XfError::Journal(m) => write!(f, "run journal error: {m}"),
            XfError::Codec(m) => write!(f, "trace codec error: {m}"),
            XfError::Rejected { code, message } => {
                write!(f, "job rejected by server (code {code}): {message}")
            }
        }
    }
}

impl std::error::Error for XfError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            XfError::Pm(e) => Some(e),
            XfError::Config(e) => Some(e),
            XfError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PmError> for XfError {
    fn from(e: PmError) -> Self {
        XfError::Pm(e)
    }
}

impl From<ConfigError> for XfError {
    fn from(e: ConfigError) -> Self {
        XfError::Config(e)
    }
}

impl From<io::Error> for XfError {
    fn from(e: io::Error) -> Self {
        XfError::Io(e)
    }
}

impl From<EngineError> for XfError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::Pm(e) => XfError::Pm(e),
            EngineError::Setup(m) => XfError::Setup(m),
            EngineError::PreFailure(m) => XfError::PreFailure(m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_errors_convert_losslessly() {
        let e: XfError = EngineError::Setup("nope".into()).into();
        assert!(matches!(e, XfError::Setup(ref m) if m == "nope"));
        let e: XfError = EngineError::PreFailure("boom".into()).into();
        assert!(matches!(e, XfError::PreFailure(_)));
    }

    #[test]
    fn config_errors_render_guidance() {
        let msg = XfError::from(ConfigError::ZeroThreads).to_string();
        assert!(msg.contains("at least 1"), "{msg}");
    }

    #[test]
    fn codes_are_stable_and_exit_codes_split_usage_from_runtime() {
        assert_eq!(ConfigError::ZeroStreamCapacity.code(), 2);
        assert_eq!(ConfigError::ScheduleTooLarge.code(), 6);
        assert_eq!(ConfigError::MissingValue("--job").code(), 10);
        assert_eq!(
            ConfigError::Unknown {
                what: "flag",
                value: "--frobnicate".into()
            }
            .code(),
            12
        );
        let usage = XfError::from(ConfigError::MissingSource);
        assert_eq!(usage.code(), 14);
        assert_eq!(usage.exit_code(), 1);
        let runtime = XfError::Journal("corrupt".into());
        assert_eq!(runtime.code(), 104);
        assert_eq!(runtime.exit_code(), 2);
        // Remote rejections keep the originating code's usage/runtime split.
        let remote_usage = XfError::Rejected {
            code: 14,
            message: "no source".into(),
        };
        assert_eq!(remote_usage.exit_code(), 1);
        let remote_runtime = XfError::Rejected {
            code: 103,
            message: "disk full".into(),
        };
        assert_eq!(remote_runtime.exit_code(), 2);
    }

    #[test]
    fn parse_errors_render_the_offending_value() {
        let msg = ConfigError::Invalid {
            what: "--threads",
            value: "zero".into(),
            expected: "a positive integer",
        }
        .to_string();
        assert!(msg.contains("--threads"), "{msg}");
        assert!(msg.contains("zero"), "{msg}");
        assert!(msg.contains("positive integer"), "{msg}");
    }

    #[test]
    fn io_errors_convert() {
        let e: XfError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(matches!(e, XfError::Io(_)));
        assert!(e.to_string().contains("gone"));
    }
}
