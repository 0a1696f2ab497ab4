//! The `.xft` compact binary trace format.
//!
//! [`crate::offline`]-style recorded runs round-trip through `serde_json`,
//! but a JSON trace repeats every source-file path and spells every address
//! out in decimal — an order of magnitude more bytes than the information
//! content. The `.xft` codec is the compact on-disk form:
//!
//! - a **versioned header** (`XFT1` for single-threaded traces, `XFT2` for
//!   concurrent ones; format version, optional entry/failure point counts
//!   when known up front — v2 additionally carries the thread count and the
//!   serialized schedule so a recorded concurrent run replays under the
//!   exact interleaving that produced it),
//! - the **entry records** of [`xftrace::codec`]: an incremental string
//!   table (`FileDef` records) and varint + delta encoding for the hot
//!   fields — the same entry codec the post-trace store keeps its
//!   post-failure traces in,
//! - an **`End` record** carrying the authoritative entry/failure-point
//!   counts, so streaming writers (which cannot know counts up front) stay
//!   valid and readers can verify they saw the whole trace.
//!
//! Records appear in execution order: pre-failure entries interleaved with
//! `FailurePoint` markers, each marker followed by that failure point's
//! post-failure entries. The position of a `FailurePoint` record encodes
//! the paper's "how much of the pre-failure trace had executed" (`pre_len`)
//! implicitly, so no sequence numbers are stored at all.
//!
//! **Format v2** (`XFT2`) is v1 plus concurrency: the header gains a thread
//! count and the schedule string, and every entry carries a trailing thread
//! id varint (tiny tids make it one byte). v1 files decode unchanged with
//! every tid defaulting to 0; v2 is only emitted for runs stamped with
//! thread metadata, so single-threaded traces stay byte-identical to v1.
//!
//! [`XftWriter`] streams entry-by-entry, so a recorded run never has to be
//! fully resident while it is written. Every trace is decoded by
//! [`XftMmapReader`], a bounds-checked cursor over the loaded bytes. Its
//! [`XftMmapReader::events`] groups each failure point with its
//! post-failure entries: [`read_recorded_run`] collects those events, and
//! [`analyze_xft`] feeds them to the offline backend as they decode.

use std::fmt;
use std::io::{self, Write};
use std::path::Path;

use pmem::PersistDomain;
use xfdetector::offline::{self, Event, RecordedFailurePoint, RecordedRun};
use xfdetector::DetectionReport;
use xftrace::codec::{DecodeError, EntryCursor, EntryWriter, REC_POST, REC_PRE};
use xftrace::varint::{write_str, write_varint};
use xftrace::{OwnedTraceEntry, SourceLoc, TraceEntry};

/// File magic: `XFT` + format generation `1` (single-threaded traces).
pub const MAGIC: [u8; 4] = *b"XFT1";
/// File magic: `XFT` + format generation `2` (concurrent traces).
pub const MAGIC2: [u8; 4] = *b"XFT2";
/// Format version written behind [`MAGIC`].
pub const VERSION: u8 = 1;
/// Format version written behind [`MAGIC2`].
pub const VERSION2: u8 = 2;

/// Header flag: the header carries authoritative entry/failure-point counts
/// (set by [`write_recorded_run`]; streaming writers leave it clear and
/// rely on the `End` record alone).
const FLAG_COUNTS_IN_HEADER: u8 = 0b0000_0001;

/// Header flag (v2 only): the header carries a persistence-domain stamp —
/// one code byte ([`PersistDomain::code`]), plus a varint reorder window
/// for the CXL code. ADR traces never set it, so every pre-domain `.xft`
/// byte stream (v1 or v2) is still produced bit-for-bit and decodes as
/// ADR.
const FLAG_DOMAIN: u8 = 0b0000_0010;

// Framing record tags; the entry and `FileDef` tags belong to
// `xftrace::codec`.
const REC_FAILURE_POINT: u8 = 0x03;
const REC_END: u8 = 0xFF;

/// Errors produced while encoding or decoding `.xft` data.
#[derive(Debug)]
#[non_exhaustive]
pub enum XftError {
    /// An underlying I/O error (a truncated trace is `UnexpectedEof`).
    Io(io::Error),
    /// The input does not start with the `XFT1`/`XFT2` magic.
    BadMagic([u8; 4]),
    /// The input's format version is newer than this reader understands.
    UnsupportedVersion(u8),
    /// The header's persistence-domain stamp carries a code this build
    /// does not know. Domain codes are append-only, so this means a newer
    /// writer — rejecting is safer than silently analyzing under the wrong
    /// semantics.
    UnknownDomain(u8),
    /// Structurally invalid input (unknown tags, count mismatches, invalid
    /// UTF-8 in the string table, …).
    Corrupt(String),
    /// The trace names a new source file and the process-global file-name
    /// table is full ([`xftrace::MAX_INTERNED_FILE_BYTES`]).
    FileTableFull,
}

impl fmt::Display for XftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XftError::Io(e) => write!(f, "i/o error: {e}"),
            XftError::BadMagic(m) => write!(f, "not an .xft trace (magic {m:02x?})"),
            XftError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported .xft version {v} (this build reads {VERSION} and {VERSION2})"
                )
            }
            XftError::UnknownDomain(code) => {
                write!(f, "unknown persistence-domain code {code} in .xft header")
            }
            XftError::Corrupt(msg) => write!(f, "corrupt .xft trace: {msg}"),
            XftError::FileTableFull => write!(f, "{}", DecodeError::FileTableFull),
        }
    }
}

impl std::error::Error for XftError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            XftError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for XftError {
    fn from(e: io::Error) -> Self {
        XftError::Io(e)
    }
}

impl From<DecodeError> for XftError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Eof => XftError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "unexpected end of mapped .xft buffer",
            )),
            DecodeError::Corrupt(msg) => XftError::Corrupt(msg),
            DecodeError::FileTableFull => XftError::FileTableFull,
        }
    }
}

impl From<XftError> for xfdetector::XfError {
    fn from(e: XftError) -> Self {
        match e {
            // Preserve I/O errors structurally; everything else renders
            // through the codec's own Display.
            XftError::Io(io) => xfdetector::XfError::Io(io),
            other => xfdetector::XfError::Codec(other.to_string()),
        }
    }
}

/// The decoded `.xft` header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XftHeader {
    /// Format version.
    pub version: u8,
    /// Total entry count, when the writer knew it up front.
    pub entry_count: Option<u64>,
    /// Failure-point count, when the writer knew it up front.
    pub fp_count: Option<u64>,
    /// Thread count of a concurrent trace (0 on v1 files).
    pub threads: u32,
    /// Serialized schedule of a concurrent trace (empty on v1 files).
    pub schedule: String,
    /// The persistence domain the trace was recorded under. v1 files and
    /// v2 files without a domain stamp decode as [`PersistDomain::Adr`].
    pub domain: PersistDomain,
}

impl XftHeader {
    /// Whether entries carry per-entry thread ids (format v2).
    #[must_use]
    pub fn is_concurrent(&self) -> bool {
        self.version >= VERSION2
    }
}

/// Decodes a header domain stamp from its code byte; `window` supplies the
/// trailing varint reorder window and is consulted only for the CXL code.
fn decode_domain(
    code: u8,
    window: impl FnOnce() -> Result<u64, XftError>,
) -> Result<PersistDomain, XftError> {
    let domain = match code {
        0 => PersistDomain::Adr,
        1 => PersistDomain::Eadr,
        2 => {
            let w = window()?;
            let w = usize::try_from(w)
                .map_err(|_| XftError::Corrupt(format!("reorder window {w} exceeds usize")))?;
            PersistDomain::CxlGpf { reorder_window: w }
        }
        other => return Err(XftError::UnknownDomain(other)),
    };
    domain
        .validate()
        .map_err(|e| XftError::Corrupt(e.to_string()))?;
    Ok(domain)
}

/// Checks that `version` is one this build decodes behind `magic`; the
/// magic byte names the generation, the version byte must agree.
fn check_version(magic: [u8; 4], version: u8) -> Result<(), XftError> {
    let supported = if magic == MAGIC2 {
        version == VERSION2
    } else {
        version <= VERSION
    };
    if supported {
        Ok(())
    } else {
        Err(XftError::UnsupportedVersion(version))
    }
}

/// A streaming `.xft` encoder.
///
/// Emit pre-failure entries with [`XftWriter::write_pre`], start each
/// failure point with [`XftWriter::begin_failure_point`] followed by its
/// post-failure entries, and call [`XftWriter::finish`] to write the `End`
/// record. Nothing is buffered: a recorded run never has to be fully
/// resident.
#[derive(Debug)]
pub struct XftWriter<W: Write> {
    w: W,
    enc: EntryWriter,
    entries: u64,
    fps: u64,
}

impl<W: Write> XftWriter<W> {
    /// Writes the header and returns the writer.
    ///
    /// `counts` are the `(entries, failure points)` totals when known up
    /// front (the reader cross-checks them against the `End` record);
    /// streaming writers pass `None`. A trace stamped with thread metadata
    /// (`threads != 0` or a non-empty `schedule`) or a non-ADR `domain`
    /// goes out as v2, and every entry then records its thread id; a plain
    /// ADR trace is v1, byte-identical to the pre-domain format.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing the header.
    pub fn new(
        mut w: W,
        counts: Option<(u64, u64)>,
        threads: u32,
        schedule: &str,
        domain: PersistDomain,
    ) -> Result<Self, XftError> {
        let stamp_domain = domain != PersistDomain::Adr;
        let concurrent = threads != 0 || !schedule.is_empty() || stamp_domain;
        let (magic, version) = if concurrent {
            (MAGIC2, VERSION2)
        } else {
            (MAGIC, VERSION)
        };
        w.write_all(&magic)?;
        let mut flags = if counts.is_some() {
            FLAG_COUNTS_IN_HEADER
        } else {
            0
        };
        if stamp_domain {
            flags |= FLAG_DOMAIN;
        }
        w.write_all(&[version, flags])?;
        if let Some((entries, fps)) = counts {
            write_varint(&mut w, entries)?;
            write_varint(&mut w, fps)?;
        }
        if concurrent {
            write_varint(&mut w, u64::from(threads))?;
            write_str(&mut w, schedule)?;
        }
        if stamp_domain {
            w.write_all(&[domain.code()])?;
            if let PersistDomain::CxlGpf { reorder_window } = domain {
                write_varint(&mut w, reorder_window as u64)?;
            }
        }
        Ok(XftWriter {
            w,
            enc: EntryWriter::new(concurrent),
            entries: 0,
            fps: 0,
        })
    }

    /// Appends one pre-failure entry.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn write_pre(&mut self, e: &OwnedTraceEntry) -> Result<(), XftError> {
        self.enc.write_owned(&mut self.w, REC_PRE, e)?;
        self.entries += 1;
        Ok(())
    }

    /// Starts a failure point at the ordering point `file:line`. Subsequent
    /// [`XftWriter::write_post`] calls attach to it.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn begin_failure_point(&mut self, file: &str, line: u32) -> Result<(), XftError> {
        let file_id = self.enc.file_id(&mut self.w, file)?;
        self.w.write_all(&[REC_FAILURE_POINT])?;
        write_varint(&mut self.w, file_id)?;
        write_varint(&mut self.w, u64::from(line))?;
        self.fps += 1;
        Ok(())
    }

    /// Appends one post-failure entry of the current failure point.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn write_post(&mut self, e: &OwnedTraceEntry) -> Result<(), XftError> {
        self.enc.write_owned(&mut self.w, REC_POST, e)?;
        self.entries += 1;
        Ok(())
    }

    /// Entries written so far.
    #[must_use]
    pub fn entry_count(&self) -> u64 {
        self.entries
    }

    /// Writes the `End` record with the authoritative counts and returns
    /// the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn finish(mut self) -> Result<W, XftError> {
        self.w.write_all(&[REC_END])?;
        write_varint(&mut self.w, self.entries)?;
        write_varint(&mut self.w, self.fps)?;
        self.w.flush()?;
        Ok(self.w)
    }
}

/// One decoded `.xft` event, in execution order. Source files resolve to
/// interned `&'static str` once per `FileDef` record, so decoding an entry
/// allocates nothing at all — no `String` clone, no intermediate buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XftRefEvent {
    /// A pre-failure trace entry.
    Pre(TraceEntry),
    /// A failure point injected at the ordering point `file:line`;
    /// subsequent [`XftRefEvent::Post`] events belong to it.
    FailurePoint {
        /// Interned source file of the ordering point.
        file: &'static str,
        /// Source line of the ordering point.
        line: u32,
    },
    /// A post-failure trace entry of the most recent failure point.
    Post(TraceEntry),
}

/// The `.xft` decoder: the whole trace sits in one contiguous in-memory
/// buffer (owned, `B = Vec<u8>`, or borrowed, `B = &[u8]`) and decode is a
/// bounds-checked cursor walk over the flat bytes
/// ([`xftrace::codec::EntryCursor`]).
///
/// This is the in-crate analogue of an `mmap`-backed read: the workspace
/// forbids `unsafe` (so a true `mmap(2)` region is off the table), but the
/// costs the syscall would eliminate — per-field reader dispatch, bounded
/// buffer refills, and a `String` allocation per entry for the source
/// file — are eliminated here the same way: one upfront load, then pure
/// slice indexing and interned `&'static str` file names. Every length
/// prefix is checked against the bytes present before anything is
/// allocated, so hostile input fails with a typed error.
#[derive(Debug)]
pub struct XftMmapReader<B = Vec<u8>> {
    cur: EntryCursor<B>,
    header: XftHeader,
    entries_read: u64,
    fps_read: u64,
    done: bool,
}

impl XftMmapReader {
    /// Loads `path` into memory and parses the header.
    ///
    /// # Errors
    ///
    /// [`XftError::BadMagic`] / [`XftError::UnsupportedVersion`] for foreign
    /// input, or any I/O error from reading the file (a missing file is
    /// [`io::ErrorKind::NotFound`]).
    pub fn open(path: &Path) -> Result<Self, XftError> {
        Self::from_bytes(std::fs::read(path)?)
    }
}

impl<B: AsRef<[u8]>> XftMmapReader<B> {
    /// Wraps an already-loaded `.xft` buffer and parses the header.
    ///
    /// # Errors
    ///
    /// As [`XftMmapReader::open`], minus the file I/O.
    pub fn from_bytes(buf: B) -> Result<Self, XftError> {
        let mut cur = EntryCursor::new(buf);
        let magic: [u8; 4] = cur.take(4)?.try_into().expect("length checked");
        if magic != MAGIC && magic != MAGIC2 {
            return Err(XftError::BadMagic(magic));
        }
        let version = cur.u8()?;
        let flags = cur.u8()?;
        check_version(magic, version)?;
        let (entry_count, fp_count) = if flags & FLAG_COUNTS_IN_HEADER != 0 {
            (Some(cur.varint()?), Some(cur.varint()?))
        } else {
            (None, None)
        };
        let (threads, schedule) = if magic == MAGIC2 {
            let threads = u32::try_from(cur.varint()?)
                .map_err(|_| XftError::Corrupt("thread count exceeds u32".into()))?;
            (threads, cur.str("schedule")?.to_owned())
        } else {
            (0, String::new())
        };
        let domain = if magic == MAGIC2 && flags & FLAG_DOMAIN != 0 {
            let code = cur.u8()?;
            decode_domain(code, || Ok(cur.varint()?))?
        } else {
            PersistDomain::Adr
        };
        cur.set_tids(version >= VERSION2);
        Ok(XftMmapReader {
            cur,
            header: XftHeader {
                version,
                entry_count,
                fp_count,
                threads,
                schedule,
                domain,
            },
            entries_read: 0,
            fps_read: 0,
            done: false,
        })
    }

    /// The decoded header.
    #[must_use]
    pub fn header(&self) -> XftHeader {
        self.header.clone()
    }

    /// The (interned) string table seen so far.
    #[must_use]
    pub fn files(&self) -> &[&'static str] {
        self.cur.files()
    }

    /// Entries decoded so far.
    #[must_use]
    pub fn entries_read(&self) -> u64 {
        self.entries_read
    }

    /// Failure points decoded so far.
    #[must_use]
    pub fn failure_points_read(&self) -> u64 {
        self.fps_read
    }

    /// Decodes the next event, or `None` once the `End` record is reached.
    ///
    /// # Errors
    ///
    /// [`XftError::Corrupt`] on malformed input or when the `End` counts do
    /// not match what was decoded; truncation surfaces as an
    /// [`io::ErrorKind::UnexpectedEof`] [`XftError::Io`].
    #[inline]
    pub fn next_event(&mut self) -> Result<Option<XftRefEvent>, XftError> {
        if self.done {
            return Ok(None);
        }
        match self.cur.next_tag()? {
            REC_PRE => {
                let e = self.cur.read_entry()?;
                self.entries_read += 1;
                Ok(Some(XftRefEvent::Pre(e)))
            }
            REC_POST => {
                let e = self.cur.read_entry()?;
                self.entries_read += 1;
                Ok(Some(XftRefEvent::Post(e)))
            }
            REC_FAILURE_POINT => {
                let file_id = self.cur.varint()?;
                let file = self.cur.file(file_id)?;
                let line = u32::try_from(self.cur.varint()?)
                    .map_err(|_| XftError::Corrupt("failure-point line exceeds u32".into()))?;
                self.fps_read += 1;
                Ok(Some(XftRefEvent::FailurePoint { file, line }))
            }
            REC_END => {
                let entries = self.cur.varint()?;
                let fps = self.cur.varint()?;
                if entries != self.entries_read || fps != self.fps_read {
                    return Err(XftError::Corrupt(format!(
                        "End record counts ({entries} entries, {fps} failure points) \
                         disagree with decoded stream ({}, {})",
                        self.entries_read, self.fps_read
                    )));
                }
                if let Some(h) = self.header.entry_count.filter(|&h| h != entries) {
                    return Err(XftError::Corrupt(format!(
                        "header claims {h} entries, End record has {entries}"
                    )));
                }
                if let Some(h) = self.header.fp_count.filter(|&h| h != fps) {
                    return Err(XftError::Corrupt(format!(
                        "header claims {h} failure points, End record has {fps}"
                    )));
                }
                self.done = true;
                Ok(None)
            }
            other => Err(XftError::Corrupt(format!("unknown record tag {other:#x}"))),
        }
    }

    /// The rest of the trace as the [`Event`]s
    /// [`xfdetector::offline::replay`] consumes: each failure point grouped
    /// with its post-failure entries.
    pub fn events(mut self) -> impl Iterator<Item = Result<Event, XftError>> {
        // The event read past a failure point's trace, and the longest
        // trace so far: each trace decodes into one allocation.
        let (mut pending, mut longest) = (None, 0);
        std::iter::from_fn(move || self.grouped(&mut pending, &mut longest).transpose())
    }

    #[inline]
    fn grouped(
        &mut self,
        pending: &mut Option<XftRefEvent>,
        longest: &mut usize,
    ) -> Result<Option<Event>, XftError> {
        let Some(ev) = pending
            .take()
            .map_or_else(|| self.next_event(), |ev| Ok(Some(ev)))?
        else {
            return Ok(None);
        };
        Ok(Some(match ev {
            XftRefEvent::Pre(e) => Event::Pre(e),
            XftRefEvent::FailurePoint { file, line } => {
                let mut post = Vec::with_capacity(*longest);
                loop {
                    match self.next_event()? {
                        Some(XftRefEvent::Post(e)) => post.push(e),
                        other => {
                            *pending = other;
                            break;
                        }
                    }
                }
                *longest = (*longest).max(post.len());
                Event::FailurePoint {
                    loc: SourceLoc { file, line },
                    post,
                }
            }
            XftRefEvent::Post(_) => {
                return Err(XftError::Corrupt(
                    "post-failure entry before any failure point".into(),
                ))
            }
        }))
    }
}

/// Encodes a complete [`RecordedRun`] (counts go into the header), in the
/// execution order of [`RecordedRun::segments`].
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_recorded_run<W: Write>(w: W, run: &RecordedRun) -> Result<W, XftError> {
    let counts = (run.entry_count() as u64, run.failure_points.len() as u64);
    let mut wr = XftWriter::new(w, Some(counts), run.threads, &run.schedule, run.domain)?;
    for (pre, fp) in run.segments() {
        for e in pre {
            wr.write_pre(e)?;
        }
        if let Some(rfp) = fp {
            wr.begin_failure_point(&rfp.file, rfp.line)?;
            for e in &rfp.post {
                wr.write_post(e)?;
            }
        }
    }
    wr.finish()
}

/// Encodes a [`RecordedRun`] into an in-memory `.xft` buffer.
///
/// # Errors
///
/// Propagates encoder errors (I/O cannot fail on a `Vec`).
pub fn encode_recorded_run(run: &RecordedRun) -> Result<Vec<u8>, XftError> {
    write_recorded_run(Vec::new(), run)
}

/// Decodes a complete `.xft` buffer back into a [`RecordedRun`].
///
/// # Errors
///
/// Any decode error; post-failure entries before the first failure point
/// are [`XftError::Corrupt`].
pub fn read_recorded_run(bytes: &[u8]) -> Result<RecordedRun, XftError> {
    let reader = XftMmapReader::from_bytes(bytes)?;
    let mut run = RecordedRun {
        threads: reader.header.threads,
        schedule: reader.header.schedule.clone(),
        domain: reader.header.domain,
        ..RecordedRun::default()
    };
    for event in reader.events() {
        match event? {
            Event::Pre(e) => run.pre.push(e.into()),
            Event::FailurePoint { loc, post } => {
                run.failure_points
                    .push(RecordedFailurePoint::new(run.pre.len(), loc, &post));
            }
        }
    }
    Ok(run)
}

/// Runs the detection backend directly off an `.xft` buffer: the trace's
/// events go through [`xfdetector::offline::replay`] as they decode, under
/// the domain stamped in the trace header, so the findings equal
/// [`xfdetector::offline::analyze`]'s on the decoded run. No
/// [`RecordedRun`] is ever built.
///
/// # Errors
///
/// Any decode error.
pub fn analyze_xft(bytes: &[u8], first_read_only: bool) -> Result<DetectionReport, XftError> {
    let reader = XftMmapReader::from_bytes(bytes)?;
    let domain = reader.header.domain;
    let (report, _) = offline::replay(reader.events(), domain, first_read_only, false)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xftrace::{FenceKind, FlushKind, Op, Stage};

    fn entry(op: Op, file: &str, line: u32, stage: Stage) -> OwnedTraceEntry {
        OwnedTraceEntry {
            op,
            file: file.to_owned(),
            line,
            tid: 0,
            stage,
            internal: false,
            checked: true,
        }
    }

    fn sample_run() -> RecordedRun {
        RecordedRun {
            pre: vec![
                entry(
                    Op::Write {
                        addr: 0x1000_0000,
                        size: 8,
                    },
                    "a.rs",
                    10,
                    Stage::Pre,
                ),
                entry(
                    Op::Flush {
                        addr: 0x1000_0000,
                        kind: FlushKind::Clwb,
                    },
                    "a.rs",
                    11,
                    Stage::Pre,
                ),
                entry(
                    Op::Fence {
                        kind: FenceKind::Sfence,
                    },
                    "a.rs",
                    11,
                    Stage::Pre,
                ),
                entry(
                    Op::Alloc {
                        addr: 0x1000_0040,
                        size: 64,
                        zeroed: true,
                    },
                    "b.rs",
                    3,
                    Stage::Pre,
                ),
                OwnedTraceEntry {
                    internal: true,
                    checked: false,
                    ..entry(Op::TxBegin, "lib.rs", 99, Stage::Pre)
                },
                entry(
                    Op::RegisterCommitRange {
                        var_addr: 0x1000_0000,
                        addr: 0x1000_0040,
                        size: 64,
                    },
                    "a.rs",
                    12,
                    Stage::Pre,
                ),
            ],
            failure_points: vec![RecordedFailurePoint {
                pre_len: 3,
                file: "a.rs".to_owned(),
                line: 11,
                post: vec![entry(
                    Op::Read {
                        addr: 0x1000_0000,
                        size: 8,
                    },
                    "a.rs",
                    20,
                    Stage::Post,
                )],
            }],
            threads: 0,
            schedule: String::new(),
            domain: PersistDomain::Adr,
        }
    }

    /// `sample_run` restamped as a two-thread recording: alternating tids
    /// on the pre entries and the concurrent metadata set.
    fn concurrent_run() -> RecordedRun {
        let mut run = sample_run();
        for (i, e) in run.pre.iter_mut().enumerate() {
            e.tid = (i % 2) as u32;
        }
        run.threads = 2;
        run.schedule = "t2:0,1,1,0".to_owned();
        run
    }

    fn run_json(run: &RecordedRun) -> String {
        serde_json::to_string(run).unwrap()
    }

    fn header(bytes: &[u8]) -> Result<XftHeader, XftError> {
        XftMmapReader::from_bytes(bytes).map(|r| r.header())
    }

    /// Streams `run` through a writer built with `counts`, splitting the
    /// pre entries around the single failure point exactly like
    /// [`write_recorded_run`] does.
    fn stream(run: &RecordedRun, counts: Option<(u64, u64)>) -> Vec<u8> {
        let mut wr =
            XftWriter::new(Vec::new(), counts, run.threads, &run.schedule, run.domain).unwrap();
        for e in &run.pre[..3] {
            wr.write_pre(e).unwrap();
        }
        wr.begin_failure_point("a.rs", 11).unwrap();
        for e in &run.failure_points[0].post {
            wr.write_post(e).unwrap();
        }
        for e in &run.pre[3..] {
            wr.write_pre(e).unwrap();
        }
        wr.finish().unwrap()
    }

    /// The `.xft` bytes of [`sample_run`]. Pinned: every `.xft` file on
    /// disk was written with these encodings.
    const GOLDEN_V1: &str = "58465431010107010104612e727302408080808002080014024300000002024400000003000b0451000800120104622e7273024980014001012101066c69622e7273022502c001024c7f80014000ad01ff0701";
    /// The pre-domain bytes of [`concurrent_run`].
    const GOLDEN_V2: &str = "5846543202010701020a74323a302c312c312c300104612e727302408080808002080014000243000000020102440000000003000b045100080012000104622e727302498001400101210101066c69622e7273022502c00100024c7f80014000ad0101ff0701";
    /// [`concurrent_run`] stamped `cxl:7`.
    const GOLDEN_V2_CXL: &str = "5846543202030701020a74323a302c312c312c3002070104612e727302408080808002080014000243000000020102440000000003000b045100080012000104622e727302498001400101210101066c69622e7273022502c00100024c7f80014000ad0101ff0701";

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn round_trip_is_lossless() {
        let run = sample_run();
        let bytes = encode_recorded_run(&run).unwrap();
        let back = read_recorded_run(&bytes).unwrap();
        assert_eq!(run_json(&run), run_json(&back));
    }

    #[test]
    fn header_carries_counts_for_complete_runs() {
        let bytes = encode_recorded_run(&sample_run()).unwrap();
        let h = header(&bytes).unwrap();
        assert_eq!(h.version, VERSION);
        assert_eq!(h.entry_count, Some(7));
        assert_eq!(h.fp_count, Some(1));
    }

    #[test]
    fn streaming_writer_round_trips_without_header_counts() {
        let bytes = stream(&sample_run(), None);
        let mut reader = XftMmapReader::from_bytes(&bytes[..]).unwrap();
        assert_eq!(reader.header().entry_count, None);
        let first = reader.next_event().unwrap().unwrap();
        assert!(matches!(first, XftRefEvent::Pre(_)));
        let back = read_recorded_run(&bytes).unwrap();
        assert_eq!(run_json(&sample_run()), run_json(&back));
    }

    #[test]
    fn reader_parses_the_string_table_and_counts_events() {
        let bytes = encode_recorded_run(&sample_run()).unwrap();
        let mut rd = XftMmapReader::from_bytes(bytes).unwrap();
        let mut events = 0;
        while rd.next_event().unwrap().is_some() {
            events += 1;
        }
        assert_eq!(events, 8, "7 entries + 1 failure point");
        assert_eq!(rd.files(), &["a.rs", "b.rs", "lib.rs"]);
        assert_eq!(rd.entries_read(), 7);
        assert_eq!(rd.failure_points_read(), 1);
        assert_eq!(rd.next_event().unwrap(), None, "drained stays drained");
    }

    #[test]
    fn empty_run_round_trips() {
        let bytes = encode_recorded_run(&RecordedRun::default()).unwrap();
        let back = read_recorded_run(&bytes).unwrap();
        assert_eq!(back.entry_count(), 0);
        assert!(back.failure_points.is_empty());
    }

    #[test]
    fn foreign_and_future_input_is_rejected() {
        assert!(matches!(header(b"JSON{}xx"), Err(XftError::BadMagic(_))));
        let mut future = encode_recorded_run(&RecordedRun::default()).unwrap();
        future[4] = VERSION + 1;
        assert!(matches!(
            header(&future),
            Err(XftError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn truncated_stream_is_an_eof_error() {
        let bytes = encode_recorded_run(&sample_run()).unwrap();
        let err = read_recorded_run(&bytes[..bytes.len() - 3]).unwrap_err();
        assert!(
            matches!(&err, XftError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof),
            "{err}"
        );
    }

    #[test]
    fn tampered_end_counts_are_detected() {
        let mut bytes = encode_recorded_run(&sample_run()).unwrap();
        // The End record trailer is `REC_END, entries, fps`; bump entries.
        let n = bytes.len();
        bytes[n - 2] = bytes[n - 2].wrapping_add(1);
        let err = read_recorded_run(&bytes).unwrap_err();
        assert!(matches!(err, XftError::Corrupt(_)), "{err}");
        assert!(matches!(
            analyze_xft(&bytes, true),
            Err(XftError::Corrupt(_))
        ));
    }

    #[test]
    fn post_entry_without_failure_point_is_corrupt() {
        let mut wr = XftWriter::new(Vec::new(), None, 0, "", PersistDomain::Adr).unwrap();
        wr.write_post(&entry(
            Op::Read { addr: 0, size: 8 },
            "a.rs",
            1,
            Stage::Post,
        ))
        .unwrap();
        let bytes = wr.finish().unwrap();
        assert!(read_recorded_run(&bytes).is_err());
        assert!(analyze_xft(&bytes, true).is_err());
    }

    #[test]
    fn a_trace_file_opens_and_a_missing_one_is_not_found() {
        let bytes = encode_recorded_run(&sample_run()).unwrap();
        let mut path = std::env::temp_dir();
        path.push(format!("xft-open-{}.xft", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(
            XftMmapReader::open(&path).unwrap().header().version,
            VERSION
        );
        std::fs::remove_file(&path).ok();
        let err = XftMmapReader::open(&path).unwrap_err();
        assert!(
            matches!(&err, XftError::Io(e) if e.kind() == io::ErrorKind::NotFound),
            "{err}"
        );
    }

    #[test]
    fn events_group_each_failure_point_with_its_trace() {
        let run = sample_run();
        let bytes = encode_recorded_run(&run).unwrap();
        let events: Vec<Event> = XftMmapReader::from_bytes(&bytes[..])
            .unwrap()
            .events()
            .collect::<Result<_, _>>()
            .unwrap();
        let shape: Vec<usize> = events
            .iter()
            .map(|e| match e {
                Event::Pre(_) => 0,
                Event::FailurePoint { post, .. } => 1 + post.len(),
            })
            .collect();
        assert_eq!(shape, [0, 0, 0, 2, 0, 0, 0]);
    }

    #[test]
    fn single_threaded_runs_still_encode_as_v1() {
        let bytes = encode_recorded_run(&sample_run()).unwrap();
        assert_eq!(&bytes[..4], &MAGIC);
        let h = header(&bytes).unwrap();
        assert_eq!(h.version, VERSION);
        assert!(!h.is_concurrent());
        assert_eq!(h.threads, 0);
        assert!(h.schedule.is_empty());
    }

    #[test]
    fn concurrent_run_round_trips_through_v2() {
        let run = concurrent_run();
        let bytes = encode_recorded_run(&run).unwrap();
        assert_eq!(&bytes[..4], &MAGIC2);
        let h = header(&bytes).unwrap();
        assert_eq!(h.version, VERSION2);
        assert!(h.is_concurrent());
        assert_eq!(h.threads, 2);
        assert_eq!(h.schedule, "t2:0,1,1,0");
        let back = read_recorded_run(&bytes).unwrap();
        assert_eq!(run_json(&run), run_json(&back));
    }

    #[test]
    fn one_thread_schedule_stamp_survives_the_round_trip() {
        let mut run = sample_run();
        run.threads = 1;
        run.schedule = "t1:rr".to_owned();
        let bytes = encode_recorded_run(&run).unwrap();
        assert_eq!(
            &bytes[..4],
            &MAGIC2,
            "a stamped run must not lose its stamp to v1"
        );
        let back = read_recorded_run(&bytes).unwrap();
        assert_eq!(run_json(&run), run_json(&back));
    }

    #[test]
    fn streaming_v2_writer_round_trips() {
        let run = concurrent_run();
        let back = read_recorded_run(&stream(&run, None)).unwrap();
        assert_eq!(run_json(&run), run_json(&back));
    }

    #[test]
    fn v2_magic_with_wrong_version_is_rejected() {
        let mut bytes = encode_recorded_run(&concurrent_run()).unwrap();
        bytes[4] = VERSION; // XFT2 magic must carry version 2
        assert!(matches!(
            header(&bytes),
            Err(XftError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn domain_stamp_round_trips_per_domain() {
        for domain in [
            PersistDomain::Eadr,
            PersistDomain::CxlGpf { reorder_window: 1 },
            PersistDomain::CxlGpf {
                reorder_window: 4096,
            },
        ] {
            let mut run = sample_run();
            run.domain = domain;
            let bytes = encode_recorded_run(&run).unwrap();
            assert_eq!(&bytes[..4], &MAGIC2, "non-ADR runs must go out as v2");
            let h = header(&bytes).unwrap();
            assert_eq!(h.domain, domain);
            assert_eq!(h.threads, 0, "single-threaded stamp stays zero");
            let back = read_recorded_run(&bytes).unwrap();
            assert_eq!(run_json(&run), run_json(&back));
        }
    }

    #[test]
    fn domain_stamp_composes_with_concurrent_metadata() {
        let mut run = concurrent_run();
        run.domain = PersistDomain::CxlGpf { reorder_window: 7 };
        let bytes = encode_recorded_run(&run).unwrap();
        let h = header(&bytes).unwrap();
        assert_eq!(h.threads, 2);
        assert_eq!(h.schedule, "t2:0,1,1,0");
        assert_eq!(h.domain, PersistDomain::CxlGpf { reorder_window: 7 });
        let back = read_recorded_run(&bytes).unwrap();
        assert_eq!(run_json(&run), run_json(&back));
    }

    #[test]
    fn adr_runs_encode_byte_identically_to_the_pre_domain_format() {
        // Plain ADR is the domain-free v1 stream, concurrent ADR the
        // pre-domain v2 stream, and a CXL stamp the v2 stream plus its
        // stamp, each byte for byte.
        let run = sample_run();
        assert_eq!(run.domain, PersistDomain::Adr);
        let bytes = encode_recorded_run(&run).unwrap();
        assert_eq!(bytes[5] & FLAG_DOMAIN, 0);
        assert_eq!(header(&bytes).unwrap().domain, PersistDomain::Adr);
        assert_eq!(bytes, hex(GOLDEN_V1));
        let crun = concurrent_run();
        assert_eq!(encode_recorded_run(&crun).unwrap(), hex(GOLDEN_V2));
        let mut cxl = concurrent_run();
        cxl.domain = PersistDomain::CxlGpf { reorder_window: 7 };
        assert_eq!(encode_recorded_run(&cxl).unwrap(), hex(GOLDEN_V2_CXL));
        // Entry-by-entry writes with the same header fields agree.
        let streamed = stream(&crun, Some((7, 1)));
        assert_eq!(streamed, hex(GOLDEN_V2));
    }

    #[test]
    fn unknown_domain_code_is_a_typed_error() {
        let mut run = sample_run();
        run.domain = PersistDomain::Eadr;
        let mut bytes = encode_recorded_run(&run).unwrap();
        assert_eq!(header(&bytes).unwrap().domain, PersistDomain::Eadr);
        // magic(4) + version/flags(2) + entries/fps varints(2) +
        // threads/schedule-len varints(2) put the code byte at offset 10.
        let code_pos = 10;
        assert_eq!(bytes[code_pos], PersistDomain::Eadr.code());
        bytes[code_pos] = 9;
        assert!(matches!(header(&bytes), Err(XftError::UnknownDomain(9))));
        assert!(matches!(
            analyze_xft(&bytes, true),
            Err(XftError::UnknownDomain(9))
        ));
    }

    #[test]
    fn out_of_range_reorder_window_stamp_is_corrupt() {
        let mut run = sample_run();
        run.domain = PersistDomain::CxlGpf {
            reorder_window: pmem::MAX_REORDER_WINDOW,
        };
        let bytes = encode_recorded_run(&run).unwrap();
        // Bump the stamped window varint past the cap: 4096 encodes as
        // [0x80, 0x20]; patch the continuation byte to make it 4224.
        let pos = bytes
            .windows(2)
            .position(|w| w == [0x80, 0x20])
            .expect("window varint present");
        let mut bad = bytes.clone();
        bad[pos + 1] = 0x21;
        assert!(matches!(header(&bad), Err(XftError::Corrupt(_))));
    }

    #[test]
    fn stamped_domain_drives_analysis() {
        // An unflushed dirty byte read back post-failure: a race under ADR,
        // clean under eADR where the cache is in the persistence domain.
        let mut run = RecordedRun {
            pre: vec![entry(
                Op::Write {
                    addr: 0x1000_0000,
                    size: 8,
                },
                "a.rs",
                10,
                Stage::Pre,
            )],
            failure_points: vec![RecordedFailurePoint {
                pre_len: 1,
                file: "a.rs".to_owned(),
                line: 10,
                post: vec![entry(
                    Op::Read {
                        addr: 0x1000_0000,
                        size: 8,
                    },
                    "a.rs",
                    20,
                    Stage::Post,
                )],
            }],
            ..RecordedRun::default()
        };
        let adr = analyze_xft(&encode_recorded_run(&run).unwrap(), false).unwrap();
        assert_eq!(adr.findings().len(), 1, "{adr:?}");
        run.domain = PersistDomain::Eadr;
        let eadr = analyze_xft(&encode_recorded_run(&run).unwrap(), false).unwrap();
        assert!(eadr.findings().is_empty(), "{eadr:?}");
    }
}
