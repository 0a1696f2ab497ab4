//! The resumable run journal (`.xfj`, format `XFJ1`).
//!
//! A detection run with a journal attached appends one record per
//! completed failure point: the failure point's id and location plus the
//! *report delta* — the findings the report accepted while processing that
//! failure point (post-failure checking plus the execution outcome, but
//! **not** the pre-failure findings, which regenerate deterministically
//! when the pre-failure stage re-executes). A later run pointed at the
//! same journal skips every journaled failure point, pushing its recorded
//! delta verbatim instead of re-exploring — the merged report is
//! byte-identical to an uninterrupted run.
//!
//! # Format
//!
//! Integers are LEB128 varints ([`xftrace::varint`]), strings are
//! varint-length-prefixed UTF-8.
//!
//! ```text
//! header  := "XFJ1" version:u8 fingerprint:string
//! record  := tag:u8 payload_len:varint payload checksum:varint
//! FP_DONE := 0x01, payload = fp_id file line fp_flags:u8 n_findings finding*
//! END     := 0xFF, payload = total_failure_points
//! finding := kind:u8 addr size flags:u8 [reader] [writer] [fp] [message]
//! loc     := file line      fp := id loc
//! ```
//!
//! The `flags` byte marks which optional fields follow (bit 0 reader,
//! bit 1 writer, bit 2 failure point, bit 3 message); `fp_flags` bit 0
//! marks a failure point that requested `completeDetection` (format
//! version 3). Records are length framed, so a reader tolerates a torn
//! tail — a run killed mid-append loses at most the record being written.
//! Each record carries an FNV-1a checksum of its payload (format version
//! 2): findings journaled records are merged into the final report
//! *verbatim*, so silent single-byte corruption would flow straight into
//! the report — a checksum mismatch is rejected as [`XfError::Journal`]
//! instead. The fingerprint binds the
//! journal to the workload and to every configuration axis that affects
//! the report; `max_failure_points` is deliberately excluded so a capped
//! (killed-early) run can be resumed under the full configuration.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use xftrace::fnv::fnv1a;
use xftrace::varint::{read_varint, write_str, write_varint};
use xftrace::SourceLoc;

use crate::engine::XfConfig;
use crate::error::XfError;
use crate::report::{BugKind, FailurePoint, Finding};

const MAGIC: &[u8; 4] = b"XFJ1";
const VERSION: u8 = 3;
const REC_FP_DONE: u8 = 0x01;
const REC_END: u8 = 0xFF;

const FLAG_READER: u8 = 1 << 0;
const FLAG_WRITER: u8 = 1 << 1;
const FLAG_FAILURE_POINT: u8 = 1 << 2;
const FLAG_MESSAGE: u8 = 1 << 3;

const FP_COMPLETES: u8 = 1 << 0;

/// Stable on-disk code for a [`BugKind`] (independent of declaration
/// order, so reordering the enum cannot silently corrupt old journals).
fn kind_code(kind: BugKind) -> u8 {
    match kind {
        BugKind::CrossFailureRace => 0,
        BugKind::UninitializedRace => 1,
        BugKind::CrossFailureSemantic => 2,
        BugKind::RedundantFlush => 3,
        BugKind::DuplicateTxAdd => 4,
        BugKind::PostFailureError => 5,
        BugKind::PostFailurePanic => 6,
        BugKind::AnnotationConflict => 7,
        BugKind::BudgetExceeded => 8,
        BugKind::CrossThreadRace => 9,
        BugKind::CrossThreadSemantic => 10,
    }
}

fn kind_from_code(code: u8) -> Option<BugKind> {
    Some(match code {
        0 => BugKind::CrossFailureRace,
        1 => BugKind::UninitializedRace,
        2 => BugKind::CrossFailureSemantic,
        3 => BugKind::RedundantFlush,
        4 => BugKind::DuplicateTxAdd,
        5 => BugKind::PostFailureError,
        6 => BugKind::PostFailurePanic,
        7 => BugKind::AnnotationConflict,
        8 => BugKind::BudgetExceeded,
        9 => BugKind::CrossThreadRace,
        10 => BugKind::CrossThreadSemantic,
        _ => return None,
    })
}

/// The run fingerprint: the workload plus every configuration axis that
/// affects the final report. The run journal and the cross-run class cache
/// bind their files to it: a resumed run whose fingerprint differs is
/// rejected instead of silently merging incompatible findings, and a cache
/// whose header differs starts cold.
///
/// Deliberately excluded: `max_failure_points` (so a truncated run resumes
/// under the full configuration), `record_trace` and the execution mode
/// (all report-neutral — a journal written by a batch run can resume in
/// parallel or stream mode).
#[must_use]
pub fn run_fingerprint(workload: &str, config: &XfConfig) -> String {
    format!(
        "workload={workload};skip_empty={};first_read_only={};inject_at_completion={};\
         fire_on_every_write={};catch_post_panics={};crash_policy={:?};rng_seed={:#x};\
         dedup_images={};post_budget={:?};threads={};schedule={};domain={}",
        config.skip_empty_failure_points,
        config.first_read_only,
        config.inject_at_completion,
        config.fire_on_every_write,
        config.catch_post_panics,
        config.crash_policy,
        config.rng_seed,
        config.dedup_images,
        config.post_budget,
        config.threads,
        config.schedule,
        config.domain,
    )
}

/// One journaled failure point: its identity and the report delta it
/// contributed.
#[derive(Debug, Clone)]
pub struct JournalFp {
    /// Sequential failure-point id within the run.
    pub id: u64,
    /// Source file of the ordering point the failure was injected before.
    pub file: String,
    /// Source line of the ordering point.
    pub line: u32,
    /// Whether the failure point's post-failure run requested
    /// `completeDetection`.
    pub completes: bool,
    /// The findings the report accepted while processing this failure
    /// point, in acceptance order.
    pub findings: Vec<Finding>,
}

fn write_loc(buf: &mut Vec<u8>, loc: SourceLoc) {
    write_str(buf, loc.file).expect("vec write");
    write_varint(buf, u64::from(loc.line)).expect("vec write");
}

fn encode_finding(buf: &mut Vec<u8>, f: &Finding) {
    buf.push(kind_code(f.kind));
    write_varint(buf, f.addr).expect("vec write");
    write_varint(buf, u64::from(f.size)).expect("vec write");
    let mut flags = 0u8;
    if f.reader.is_some() {
        flags |= FLAG_READER;
    }
    if f.writer.is_some() {
        flags |= FLAG_WRITER;
    }
    if f.failure_point.is_some() {
        flags |= FLAG_FAILURE_POINT;
    }
    if f.message.is_some() {
        flags |= FLAG_MESSAGE;
    }
    buf.push(flags);
    if let Some(loc) = f.reader {
        write_loc(buf, loc);
    }
    if let Some(loc) = f.writer {
        write_loc(buf, loc);
    }
    if let Some(fp) = f.failure_point {
        write_varint(buf, fp.id).expect("vec write");
        write_loc(buf, fp.loc);
    }
    if let Some(msg) = &f.message {
        write_str(buf, msg).expect("vec write");
    }
}

fn read_string<R: Read>(r: &mut R) -> io::Result<String> {
    let len = read_varint(r)?;
    if len > 1 << 20 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "unreasonable string length in journal",
        ));
    }
    let mut bytes = vec![0u8; len as usize];
    r.read_exact(&mut bytes)?;
    String::from_utf8(bytes)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 string in journal"))
}

fn read_loc<R: Read>(r: &mut R) -> io::Result<SourceLoc> {
    let file = read_string(r)?;
    let line = u32::try_from(read_varint(r)?)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "line number overflow"))?;
    let file = xftrace::intern_file(&file)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "file-name table full"))?;
    Ok(SourceLoc { file, line })
}

fn decode_finding<R: Read>(r: &mut R) -> io::Result<Finding> {
    let mut b = [0u8; 2];
    r.read_exact(&mut b[..1])?;
    let kind = kind_from_code(b[0])
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unknown bug-kind code"))?;
    let addr = read_varint(r)?;
    let size = u32::try_from(read_varint(r)?)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "size overflow"))?;
    r.read_exact(&mut b[1..])?;
    let flags = b[1];
    let reader = (flags & FLAG_READER != 0)
        .then(|| read_loc(r))
        .transpose()?;
    let writer = (flags & FLAG_WRITER != 0)
        .then(|| read_loc(r))
        .transpose()?;
    let failure_point = if flags & FLAG_FAILURE_POINT != 0 {
        let id = read_varint(r)?;
        Some(FailurePoint {
            id,
            loc: read_loc(r)?,
        })
    } else {
        None
    };
    let message = (flags & FLAG_MESSAGE != 0)
        .then(|| read_string(r))
        .transpose()?;
    Ok(Finding {
        kind,
        addr,
        size,
        reader,
        writer,
        failure_point,
        message,
    })
}

/// Append side of a run journal. Every record is flushed as written, so a
/// crash loses at most the record in flight.
#[derive(Debug)]
pub(crate) struct JournalWriter {
    w: BufWriter<File>,
}

impl JournalWriter {
    /// Creates a fresh journal at `path`, writing the header.
    pub(crate) fn create(path: &Path, fingerprint: &str) -> io::Result<Self> {
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(MAGIC)?;
        w.write_all(&[VERSION])?;
        write_str(&mut w, fingerprint)?;
        w.flush()?;
        Ok(JournalWriter { w })
    }

    /// Reopens an existing journal for appending (header already present
    /// and validated by [`read_journal`]).
    pub(crate) fn append(path: &Path) -> io::Result<Self> {
        let f = OpenOptions::new().append(true).open(path)?;
        Ok(JournalWriter {
            w: BufWriter::new(f),
        })
    }

    fn record(&mut self, tag: u8, payload: &[u8]) -> io::Result<()> {
        self.w.write_all(&[tag])?;
        write_varint(&mut self.w, payload.len() as u64)?;
        self.w.write_all(payload)?;
        write_varint(&mut self.w, fnv1a(payload))?;
        self.w.flush()
    }

    /// Appends a completed failure point, whether its post-failure run
    /// requested `completeDetection`, and its report delta.
    pub(crate) fn record_fp(
        &mut self,
        id: u64,
        loc: SourceLoc,
        completes: bool,
        findings: &[Finding],
    ) -> io::Result<()> {
        let mut payload = Vec::with_capacity(64);
        write_varint(&mut payload, id).expect("vec write");
        write_loc(&mut payload, loc);
        payload.push(if completes { FP_COMPLETES } else { 0 });
        write_varint(&mut payload, findings.len() as u64).expect("vec write");
        for f in findings {
            encode_finding(&mut payload, f);
        }
        self.record(REC_FP_DONE, &payload)
    }

    /// Appends the end-of-run marker with the failure-point total.
    pub(crate) fn finish(&mut self, total_failure_points: u64) -> io::Result<()> {
        let mut payload = Vec::with_capacity(10);
        write_varint(&mut payload, total_failure_points).expect("vec write");
        self.record(REC_END, &payload)
    }
}

/// The parsed contents of a run journal.
#[derive(Debug, Clone, Default)]
pub(crate) struct JournalContents {
    /// The fingerprint the journal was created under.
    pub(crate) fingerprint: String,
    /// Journaled failure points, by id.
    pub(crate) fps: HashMap<u64, JournalFp>,
    /// The END record's failure-point total, when the run completed.
    pub(crate) completed_total: Option<u64>,
}

/// Reads a journal, tolerating a torn (truncated) trailing record.
///
/// # Errors
///
/// [`XfError::Io`] when the file cannot be opened or read;
/// [`XfError::Journal`] for foreign magic, an unsupported version, or a
/// structurally corrupt record body.
pub(crate) fn read_journal(path: &Path) -> Result<JournalContents, XfError> {
    let mut r = BufReader::new(File::open(path)?);
    let mut magic = [0u8; 5];
    r.read_exact(&mut magic)
        .map_err(|_| XfError::Journal("file too short for an XFJ1 header".into()))?;
    if &magic[..4] != MAGIC {
        return Err(XfError::Journal("not an XFJ1 run journal".into()));
    }
    if magic[4] != VERSION {
        return Err(XfError::Journal(format!(
            "unsupported journal version {}",
            magic[4]
        )));
    }
    let fingerprint = read_string(&mut r)
        .map_err(|e| XfError::Journal(format!("unreadable fingerprint: {e}")))?;

    let mut contents = JournalContents {
        fingerprint,
        ..JournalContents::default()
    };
    loop {
        let mut tag = [0u8; 1];
        match r.read_exact(&mut tag) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e.into()),
        }
        // Length framing: a torn tail (EOF inside the length or payload)
        // ends the journal at the last complete record.
        let Ok(len) = read_varint(&mut r) else { break };
        if len > 1 << 28 {
            return Err(XfError::Journal("unreasonable record length".into()));
        }
        let mut payload = vec![0u8; len as usize];
        if r.read_exact(&mut payload).is_err() {
            break;
        }
        // A torn tail may end inside the checksum (tolerated); a complete
        // record with a wrong checksum is corruption, not truncation.
        let Ok(checksum) = read_varint(&mut r) else {
            break;
        };
        if checksum != fnv1a(&payload) {
            return Err(XfError::Journal(
                "record checksum mismatch (corrupt journal)".into(),
            ));
        }
        let mut p = &payload[..];
        match tag[0] {
            REC_FP_DONE => {
                let fp = parse_fp(&mut p)
                    .map_err(|e| XfError::Journal(format!("corrupt FP_DONE record: {e}")))?;
                contents.fps.insert(fp.id, fp);
            }
            REC_END => {
                let total = read_varint(&mut p)
                    .map_err(|e| XfError::Journal(format!("corrupt END record: {e}")))?;
                contents.completed_total = Some(total);
            }
            // Unknown tags are skipped: additive format evolution.
            _ => {}
        }
    }
    Ok(contents)
}

fn parse_fp(r: &mut &[u8]) -> io::Result<JournalFp> {
    let id = read_varint(r)?;
    let file = read_string(r)?;
    let line = u32::try_from(read_varint(r)?)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "line number overflow"))?;
    let mut fp_flags = [0u8];
    r.read_exact(&mut fp_flags)?;
    let n = read_varint(r)?;
    if n > 1 << 20 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "unreasonable finding count",
        ));
    }
    let mut findings = Vec::with_capacity(n as usize);
    for _ in 0..n {
        findings.push(decode_finding(r)?);
    }
    Ok(JournalFp {
        id,
        file,
        line,
        completes: fp_flags[0] & FP_COMPLETES != 0,
        findings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_finding(line: u32) -> Finding {
        Finding {
            kind: BugKind::CrossFailureRace,
            addr: 0x1040,
            size: 8,
            reader: Some(SourceLoc {
                file: "reader.rs",
                line,
            }),
            writer: Some(SourceLoc {
                file: "writer.rs",
                line: line + 1,
            }),
            failure_point: Some(FailurePoint {
                id: 3,
                loc: SourceLoc {
                    file: "op.rs",
                    line: 9,
                },
            }),
            message: None,
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("xfj-test-{}-{name}.xfj", std::process::id()));
        p
    }

    #[test]
    fn journal_round_trips_findings_exactly() {
        let path = tmp("roundtrip");
        let mut w = JournalWriter::create(&path, "fp=test").unwrap();
        let outcome_finding = Finding {
            kind: BugKind::BudgetExceeded,
            addr: 0,
            size: 0,
            reader: Some(SourceLoc {
                file: "w.rs",
                line: 4,
            }),
            writer: None,
            failure_point: Some(FailurePoint {
                id: 1,
                loc: SourceLoc {
                    file: "w.rs",
                    line: 4,
                },
            }),
            message: Some("post-failure trace-entry budget exceeded (10 entries)".into()),
        };
        w.record_fp(
            0,
            SourceLoc {
                file: "w.rs",
                line: 4,
            },
            false,
            &[sample_finding(10), outcome_finding.clone()],
        )
        .unwrap();
        w.record_fp(
            1,
            SourceLoc {
                file: "w.rs",
                line: 5,
            },
            true,
            &[],
        )
        .unwrap();
        w.finish(2).unwrap();
        drop(w);

        let c = read_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(c.fingerprint, "fp=test");
        assert_eq!(c.completed_total, Some(2));
        assert_eq!(c.fps.len(), 2);
        let fp0 = &c.fps[&0];
        assert_eq!((fp0.file.as_str(), fp0.line), ("w.rs", 4));
        // Byte-identical serialization is the resume-equivalence criterion.
        assert_eq!(
            serde_json::to_string(&fp0.findings).unwrap(),
            serde_json::to_string(&vec![sample_finding(10), outcome_finding]).unwrap(),
        );
        assert!(c.fps[&1].findings.is_empty());
        assert_eq!((fp0.completes, c.fps[&1].completes), (false, true));
    }

    #[test]
    fn version_2_journals_are_rejected() {
        let path = tmp("v2");
        JournalWriter::create(&path, "fp=old").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4] = 2;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_journal(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(
            matches!(&err, XfError::Journal(m) if m.contains("version 2")),
            "{err:?}"
        );
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let path = tmp("torn");
        let mut w = JournalWriter::create(&path, "fp=torn").unwrap();
        w.record_fp(
            0,
            SourceLoc {
                file: "a.rs",
                line: 1,
            },
            false,
            &[sample_finding(2)],
        )
        .unwrap();
        w.record_fp(
            1,
            SourceLoc {
                file: "a.rs",
                line: 2,
            },
            false,
            &[sample_finding(3)],
        )
        .unwrap();
        drop(w);
        // Chop bytes off the tail: every prefix must parse to a subset.
        let full = std::fs::read(&path).unwrap();
        for cut in 1..20 {
            if cut >= full.len() {
                break;
            }
            std::fs::write(&path, &full[..full.len() - cut]).unwrap();
            let c = read_journal(&path).expect("torn tail must not error");
            assert!(c.fps.len() <= 2);
            assert_eq!(c.completed_total, None, "END was in the torn region");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn payload_corruption_is_rejected_by_the_checksum() {
        let path = tmp("checksum");
        let mut w = JournalWriter::create(&path, "fp=sum").unwrap();
        w.record_fp(
            0,
            SourceLoc {
                file: "a.rs",
                line: 1,
            },
            false,
            &[sample_finding(2)],
        )
        .unwrap();
        w.finish(1).unwrap();
        drop(w);

        let full = std::fs::read(&path).unwrap();
        // Flip one byte inside the FP_DONE payload (skipping the header):
        // the record parses structurally but the checksum must catch it.
        let header_len = 4 + 1 + 1 + "fp=sum".len(); // magic, version, len, fp
        let mut corrupt = full.clone();
        corrupt[header_len + 4] ^= 0x10;
        std::fs::write(&path, &corrupt).unwrap();
        let err = read_journal(&path).unwrap_err();
        assert!(
            matches!(&err, XfError::Journal(m) if m.contains("checksum")),
            "{err:?}"
        );

        // The pristine file still parses.
        std::fs::write(&path, &full).unwrap();
        assert_eq!(read_journal(&path).unwrap().fps.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_files_are_rejected() {
        let path = tmp("foreign");
        std::fs::write(&path, b"XFT1\x01not a journal").unwrap();
        let err = read_journal(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, XfError::Journal(_)), "{err:?}");
    }

    #[test]
    fn append_extends_an_existing_journal() {
        let path = tmp("append");
        let mut w = JournalWriter::create(&path, "fp=x").unwrap();
        w.record_fp(
            0,
            SourceLoc {
                file: "a.rs",
                line: 1,
            },
            false,
            &[],
        )
        .unwrap();
        drop(w);
        let mut w = JournalWriter::append(&path).unwrap();
        w.record_fp(
            1,
            SourceLoc {
                file: "a.rs",
                line: 2,
            },
            false,
            &[],
        )
        .unwrap();
        w.finish(2).unwrap();
        drop(w);
        let c = read_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(c.fps.len(), 2);
        assert_eq!(c.completed_total, Some(2));
    }

    #[test]
    fn fingerprint_excludes_report_neutral_axes() {
        let a = run_fingerprint("w", &XfConfig::default());
        let capped = XfConfig {
            max_failure_points: Some(3),
            record_trace: true,
            ..XfConfig::default()
        };
        assert_eq!(a, run_fingerprint("w", &capped));
        let differs = XfConfig {
            first_read_only: false,
            ..XfConfig::default()
        };
        assert_ne!(a, run_fingerprint("w", &differs));
        assert_ne!(a, run_fingerprint("other", &XfConfig::default()));
    }
}
