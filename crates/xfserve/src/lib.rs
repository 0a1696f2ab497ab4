//! # xfserve — the XFDetector campaign server
//!
//! A long-running daemon (`xfd serve`) that accepts detection jobs over
//! TCP or Unix-domain sockets and shards them across a persistent
//! executor pool. A job is a [`JobSpec`](xfdetector::JobSpec) — a named
//! workload or an uploaded `.xft`/`.fuzz` artifact plus full detector
//! configuration — and its findings, metrics and progress stream back
//! incrementally as length-framed, checksummed records ([`proto`]).
//!
//! The server's headline win over one-shot `xfd report` runs is the
//! **cross-run post-trace store**: the post-failure trace checked at each
//! failure point is persisted per program digest and configuration, so a
//! repeat campaign replays every already-analyzed failure point instead
//! of executing it. See [`server`] for the store keying and invalidation
//! rules.
//!
//! Three layers:
//!
//! - [`proto`] — the framed wire protocol (tags, varint payloads,
//!   FNV-1a checksums) shared by client and server,
//! - [`Server`] — bind/accept/execute; [`ServerOptions`] tunes the
//!   executor pool and cache directory,
//! - [`Client`] — submit/watch/status/shutdown, as used by `xfd
//!   submit`, `xfd watch` and `xfd stop`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod proto;

mod client;
mod job;
mod server;

pub use client::Client;
pub use job::Emitter;
pub use proto::{ArtifactKind, JobEvent};
pub use server::{AnyStream, Server, ServerOptions};
