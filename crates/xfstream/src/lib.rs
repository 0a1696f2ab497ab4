//! # xfstream — trace files for the XFDetector reproduction
//!
//! XFDetector deploys as two processes: a Pin-based frontend that traces
//! the program under test and a detection backend, coupled by a 2 GB
//! shared-memory FIFO so that detection overlaps execution (§5.1,
//! Figure 8). The in-process analogue of that deployment, the trace FIFO
//! ([`xfdetector::spsc`]) and the stream driver
//! ([`xfdetector::run_pipelined`], [`xfdetector::Mode::Stream`]), lives in
//! `xfdetector`. This crate holds what persists traces outside a run:
//!
//! - [`codec`] — the compact `.xft` binary trace format (varint + delta
//!   encoding, string-tabled source locations, a streaming writer and one
//!   bounds-checked slice decoder), so recorded runs persist at a fraction
//!   of their JSON size and are re-analyzed by [`analyze_xft`] straight
//!   off the decoded bytes,
//! - [`repro`] — [`write_repro_artifacts`], which exports failing failure
//!   points as standalone `.xft` repro traces.
//!
//! [`session`] and [`channel`] are aliases of their `xfdetector`
//! originals, kept for the benchmark harness, which still calls them.
//!
//! The `xfd` CLI binary wires these together: `xfd record` writes `.xft`
//! traces, `xfd analyze` replays them through the offline backend, and
//! `xfd report` runs live detection in batch, pipelined or parallel mode.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod repro;

pub use codec::{
    analyze_xft, encode_recorded_run, read_recorded_run, write_recorded_run, XftError, XftHeader,
    XftMmapReader, XftRefEvent, XftWriter,
};
pub use repro::write_repro_artifacts;
pub use xfdetector::spsc::channel;

/// [`xfdetector::Session::builder`]: every session runs all three modes.
#[must_use]
pub fn session() -> xfdetector::SessionBuilder {
    xfdetector::Session::builder()
}
