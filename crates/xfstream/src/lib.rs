//! # xfstream — streaming trace transport for the XFDetector reproduction
//!
//! XFDetector deploys as two processes: a Pin-based frontend that traces
//! the program under test and a detection backend, coupled by a 2 GB
//! shared-memory FIFO so that detection overlaps execution (§5.1,
//! Figure 8). The core crates reproduce the *algorithms*; this crate
//! reproduces that *deployment shape*, in three layers:
//!
//! - [`spsc`] — a bounded lock-free SPSC FIFO channel with blocking
//!   hand-off, backpressure and occupancy/stall instrumentation: the
//!   in-process analogue of the paper's shared-memory queue,
//! - [`pipeline`] — [`run_pipelined`], which runs the batch driver's
//!   detection loop ([`xfdetector::detect`]) with its checker on a thread
//!   of its own behind that FIFO, producing a byte-identical
//!   [`xfdetector::DetectionReport`] to the sequential engine,
//! - [`codec`] — the compact `.xft` binary trace format (varint + delta
//!   encoding, string-tabled source locations, a streaming writer and one
//!   bounds-checked slice decoder), so recorded runs persist at a fraction
//!   of their JSON size and are re-analyzed by [`analyze_xft`] straight
//!   off the decoded bytes.
//!
//! The session layer rides on top: [`session`] returns an
//! [`xfdetector::SessionBuilder`] with the [`PipelinedEngine`] pre-wired,
//! so `Mode::Stream` runs get budgets, journaling, the class cache and
//! live progress like the in-process modes, and [`write_repro_artifacts`] exports failing
//! failure points as standalone `.xft` repro traces.
//!
//! The `xfd` CLI binary wires these together: `xfd record` writes `.xft`
//! traces, `xfd analyze` replays them through the offline backend, and
//! `xfd report` runs live detection in batch, pipelined or parallel mode.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod pipeline;
pub mod repro;
pub mod spsc;

pub use codec::{
    analyze_xft, analyze_xft_path, encode_recorded_run, read_recorded_run, write_recorded_run,
    XftError, XftHeader, XftMmapReader, XftRefEvent, XftWriter,
};
pub use pipeline::{run_pipelined, run_pipelined_with_ctl, PipelinedEngine, StreamOptions};
pub use repro::write_repro_artifacts;
pub use spsc::{channel, Receiver, RingStats, Sender};

/// An [`xfdetector::SessionBuilder`] with this crate's [`PipelinedEngine`]
/// injected, so [`xfdetector::Mode::Stream`] works out of the box:
///
/// ```no_run
/// use xfdetector::Mode;
/// # fn run(w: impl xfdetector::Workload + Send + Sync + 'static) {
/// let session = xfstream::session().build().unwrap();
/// let outcome = session.run(w, Mode::Stream).unwrap();
/// # }
/// ```
#[must_use]
pub fn session() -> xfdetector::SessionBuilder {
    xfdetector::Session::builder().stream_engine(std::sync::Arc::new(PipelinedEngine))
}
