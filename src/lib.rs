//! Facade crate for the XFDetector reproduction.
//!
//! Re-exports the full public API of the workspace so that examples and
//! integration tests (and downstream users who want a single dependency) can
//! reach every subsystem:
//!
//! - [`pmem`] — the persistent-memory hardware simulator,
//! - [`xftrace`] — the PM-operation tracing substrate,
//! - [`pmdk`] — the PMDK-workalike transactional library,
//! - [`xfdetector`] — the cross-failure bug detector (the paper's
//!   contribution) and its batch, parallel and streaming drivers,
//! - [`workloads`] — the evaluated PM programs and the synthetic bug
//!   registry,
//! - [`xfstream`] — the compact `.xft` trace codec behind the `xfd` CLI,
//! - [`xffuzz`] — the differential fuzzer: seeded PM-program generation, a
//!   per-byte model-checking oracle and delta-debugging repro
//!   minimization (the `xfd fuzz` subcommand),
//! - [`xfserve`] — the campaign server: framed job protocol over TCP/Unix
//!   sockets, persistent executor pool and the cross-run class cache (the
//!   `xfd serve`/`submit`/`watch` subcommands).
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for an end-to-end run of the detector against
//! a small persistent data structure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pmdk_sim as pmdk;
pub use pmem;
pub use xfd_workloads as workloads;
pub use xfdetector;
pub use xffuzz;
pub use xfserve;
pub use xfstream;
pub use xftrace;

/// One-stop imports for driving detection runs through the session API.
///
/// Pulls in the detector's own prelude (session builder, config, report and
/// error types), the workload registry needed to name a program and a bug,
/// and `stream_session`, an alias of `Session::builder`:
///
/// ```no_run
/// use xfd::prelude::*;
///
/// let outcome = stream_session()
///     .build()
///     .unwrap()
///     .run(build(WorkloadKind::Btree, 32, BugSet::none()), Mode::Stream)
///     .unwrap();
/// println!("{}", outcome.report);
/// ```
pub mod prelude {
    pub use xfd_workloads::bugs::{BugId, BugSet, WorkloadKind};
    pub use xfd_workloads::{
        build, build_with_bug, build_with_init, validation_config, validation_ops,
    };
    pub use xfdetector::prelude::*;
    pub use xfstream::session as stream_session;
}
