//! The post-trace store (`.xfj` and `.xfc` files, format `XFS1`): the one
//! persisted artifact that elides post-failure executions across runs.
//!
//! A failure point's post-failure run is a pure function of its crash
//! image (§5.1), and a run's crash images are a pure function of the
//! program, the report-affecting configuration and the failure-point id.
//! The store therefore keeps, per failure point, the post-failure trace
//! the run checked there. A later run of the same program and
//! configuration replays the stored trace against its own re-executed
//! shadow instead of executing anything ([`Plan::Warm`]), which finds
//! exactly what the first run found. Resuming a killed run
//! ([`SessionBuilder::resume`]) and serving a repeat campaign
//! ([`SessionBuilder::class_cache`]) are the same lookup.
//!
//! [`Plan::Warm`]: crate::plan::Plan::Warm
//! [`SessionBuilder::resume`]: crate::SessionBuilder::resume
//! [`SessionBuilder::class_cache`]: crate::SessionBuilder::class_cache
//!
//! # Format
//!
//! Integers are LEB128 varints, strings are varint-length-prefixed UTF-8.
//!
//! ```text
//! file    := header record*
//! header  := "XFS1" version:u8 fingerprint:string digest:string
//! record  := len:varint payload fnv1a(payload):u64le
//! payload := ns:varint id:varint 0 outcome:u8 completes:u8 message:string
//!            n_post:varint entry-record*         (an executed trace)
//!          | ns:varint id:varint 1 src:varint    (a replay of id src)
//! outcome := 0 completed | 1 failed | 2 panicked | 3 budget exceeded
//! ```
//!
//! A record is keyed by `(ns, id)`: the schedule-plan namespace (the plan's
//! expansion index in a multi-plan sweep, 0 otherwise) and the
//! failure-point id. It holds either the trace executed at that failure
//! point, in the entry records of [`xftrace::codec`] with a string table
//! and delta state of its own, or the id of the earlier failure point whose
//! trace this one replayed (a pruned class member or a deduplicated image).
//! The fingerprint binds the pruning policy, since a reference names a
//! trace an in-run prune borrowed.
//!
//! Records are self-contained, so a torn tail or a second writer appending
//! to the same file can only lose records, never corrupt one. A reader
//! stops at the first record that is torn, fails its checksum or does not
//! parse, and an appender cuts the file back to the records before it. A
//! record is first-wins, and a reference whose trace was lost is dropped:
//! a dropped record re-executes.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use xftrace::codec::{EntryCursor, EntryWriter, REC_POST};
use xftrace::fnv::fnv1a;
use xftrace::varint::{read_varint, write_str, write_varint};

use crate::detect::{Origin, Traced};
use crate::error::XfError;
use crate::plan::{PostOutcome, PostTrace};

const MAGIC: &[u8; 4] = b"XFS1";
/// Format version behind [`MAGIC`].
const VERSION: u8 = 1;
const REC_TRACE: u8 = 0;
const REC_REF: u8 = 1;
/// Bytes of a record's checksum.
const CHECKSUM: usize = 8;

/// How a session opens its store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Opener {
    /// Start a fresh file, replacing any existing one.
    Journal,
    /// Continue the file. A missing file starts fresh; a torn or foreign
    /// header is an [`XfError::Journal`].
    Resume,
    /// Continue the file. A missing, torn or foreign one starts fresh.
    Cache,
}

/// An open store: the traces loaded at open, by `(ns, id)`, and the append
/// side of the file.
#[derive(Debug)]
pub(crate) struct Store {
    records: HashMap<(u64, u64), Traced>,
    bytes_read: u64,
    appender: Mutex<Appender>,
}

#[derive(Debug)]
struct Appender {
    file: File,
    /// Framed records not yet written.
    buf: Vec<u8>,
    /// The first write error; nothing is written after it.
    error: Option<io::Error>,
}

impl Appender {
    fn flush(&mut self) {
        if self.error.is_none() && !self.buf.is_empty() {
            // One write per flush: a concurrent appender's records land
            // before or after these, never inside them.
            self.error = self.file.write_all(&self.buf).err();
        }
        self.buf.clear();
    }
}

impl Store {
    /// Opens the store at `path` for a run with `fingerprint` (see
    /// [`crate::run_fingerprint`]) and program `digest`.
    ///
    /// # Errors
    ///
    /// [`XfError::Journal`] when `opener` is [`Opener::Resume`] and the
    /// file's header is torn or belongs to another run or format;
    /// [`XfError::Io`] when the file cannot be read, created or cut back.
    pub(crate) fn open(
        path: &Path,
        opener: Opener,
        fingerprint: &str,
        digest: &str,
    ) -> Result<Store, XfError> {
        let mut header = MAGIC.to_vec();
        header.push(VERSION);
        write_str(&mut header, fingerprint).expect("vec write");
        write_str(&mut header, digest).expect("vec write");

        // The file is read through the descriptor its records are appended
        // to: should another opener replace the file in between, this
        // run's records go to the replaced one, never under a header of
        // another run.
        let read = || -> io::Result<(File, Vec<u8>)> {
            let mut file = OpenOptions::new().read(true).append(true).open(path)?;
            let mut buf = Vec::new();
            file.read_to_end(&mut buf)?;
            Ok((file, buf))
        };
        let existing = match opener {
            Opener::Journal => None,
            _ => match read() {
                Ok(read) => Some(read),
                Err(e) if e.kind() == io::ErrorKind::NotFound => None,
                Err(e) if opener == Opener::Resume => return Err(e.into()),
                Err(_) => None,
            },
        };
        let mut records = HashMap::new();
        let mut bytes_read = 0;
        let file = match existing {
            Some((file, buf)) if buf.starts_with(&header) => {
                let valid = header.len() + load(&buf[header.len()..], &mut records);
                bytes_read = buf.len() as u64;
                if valid < buf.len() {
                    file.set_len(valid as u64)?;
                }
                file
            }
            Some((_, buf)) if opener == Opener::Resume => {
                let why = if header.starts_with(&buf) {
                    "has a torn header"
                } else if buf.starts_with(MAGIC) {
                    "belongs to a different run or format version"
                } else {
                    "is not an XFS1 post-trace store"
                };
                return Err(XfError::Journal(format!("{} {why}", path.display())));
            }
            _ => create(path, &header)?,
        };
        Ok(Store {
            records,
            bytes_read,
            appender: Mutex::new(Appender {
                file,
                buf: Vec::new(),
                error: None,
            }),
        })
    }

    /// The trace stored for failure point `id` of plan `ns`.
    pub(crate) fn get(&self, ns: u64, id: u64) -> Option<&Traced> {
        self.records.get(&(ns, id))
    }

    /// Appends the record of failure point `id` of plan `ns`, whose trace
    /// came from `origin`. A trace executed here is written at once, with
    /// any references buffered before it; a stored one appends nothing.
    pub(crate) fn append(&self, ns: u64, id: u64, origin: Origin, (post, outcome): &Traced) {
        if origin == Origin::Stored {
            return;
        }
        let mut payload = Vec::new();
        write_varint(&mut payload, ns).expect("vec write");
        write_varint(&mut payload, id).expect("vec write");
        if let Origin::Replayed(src) = origin {
            payload.push(REC_REF);
            write_varint(&mut payload, src).expect("vec write");
        } else {
            let (code, message) = match outcome {
                PostOutcome::Completed => (0, ""),
                PostOutcome::Failed(m) => (1, m.as_str()),
                PostOutcome::Panicked(m) => (2, m.as_str()),
                PostOutcome::BudgetExceeded(m) => (3, m.as_str()),
            };
            payload.extend([REC_TRACE, code, u8::from(post.completes())]);
            write_str(&mut payload, message).expect("vec write");
            write_varint(&mut payload, post.entries().len() as u64).expect("vec write");
            let mut entries = EntryWriter::new(true);
            for e in post.entries() {
                entries
                    .write_entry(&mut payload, REC_POST, e)
                    .expect("vec write");
            }
        }
        let mut appender = self.appender.lock().expect("store appender lock");
        write_varint(&mut appender.buf, payload.len() as u64).expect("vec write");
        appender.buf.extend_from_slice(&payload);
        appender
            .buf
            .extend_from_slice(&fnv1a(&payload).to_le_bytes());
        if origin == Origin::Executed {
            appender.flush();
        }
    }

    /// Writes the buffered records and surfaces the first write error of
    /// the run; appends after an error are dropped.
    pub(crate) fn flush(&self) -> io::Result<()> {
        let mut appender = self.appender.lock().expect("store appender lock");
        appender.flush();
        match &appender.error {
            Some(e) => Err(io::Error::new(e.kind(), e.to_string())),
            None => Ok(()),
        }
    }

    /// Records loaded at open.
    pub(crate) fn loaded(&self) -> u64 {
        self.records.len() as u64
    }

    /// Bytes of store file read at open (zero when it started fresh).
    pub(crate) fn bytes_read(&self) -> u64 {
        self.bytes_read
    }
}

/// Creates a fresh store holding only `header`, through a uniquely named
/// temporary file and a `rename`: a concurrent reader sees the old file or
/// the new one, and a concurrent appender to the old file writes to an
/// unlinked one.
fn create(path: &Path, header: &[u8]) -> io::Result<File> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut name = path.file_name().unwrap_or_default().to_owned();
    name.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(name);
    let created = OpenOptions::new()
        .append(true)
        .create_new(true)
        .open(&tmp)
        .and_then(|mut f| {
            f.write_all(header)?;
            std::fs::rename(&tmp, path)?;
            Ok(f)
        });
    if created.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    created
}

/// A decoded record: an executed trace, or the id whose trace it replayed.
enum Record {
    Trace(Traced),
    Ref(u64),
}

/// Loads the records of `body` (the file after its header) into `records`
/// and returns the length of the valid prefix.
fn load(body: &[u8], records: &mut HashMap<(u64, u64), Traced>) -> usize {
    let mut rest = body;
    let mut valid = 0;
    let mut refs = Vec::new();
    while !rest.is_empty() {
        let Ok(len) = read_varint(&mut rest) else {
            break;
        };
        let Some((payload, tail)) = usize::try_from(len)
            .ok()
            .filter(|&len| len <= rest.len().saturating_sub(CHECKSUM))
            .map(|len| rest.split_at(len))
        else {
            break;
        };
        let (sum, tail) = tail.split_at(CHECKSUM);
        if sum != fnv1a(payload).to_le_bytes() {
            break;
        }
        let Some((key, record)) = parse(payload) else {
            break;
        };
        rest = tail;
        valid = body.len() - rest.len();
        match record {
            Record::Trace(traced) => {
                records.entry(key).or_insert(traced);
            }
            Record::Ref(src) => refs.push((key, (key.0, src))),
        }
    }
    for (key, src) in refs {
        if let Some(traced) = records.get(&src).cloned() {
            records.entry(key).or_insert(traced);
        }
    }
    valid
}

/// Parses one checksummed record payload; `None` if it is malformed.
fn parse(payload: &[u8]) -> Option<((u64, u64), Record)> {
    let mut cur = EntryCursor::new(payload);
    cur.set_tids(true);
    let key = (cur.varint().ok()?, cur.varint().ok()?);
    let record = match cur.u8().ok()? {
        REC_TRACE => {
            let code = cur.u8().ok()?;
            let completes = match cur.u8().ok()? {
                0 => false,
                1 => true,
                _ => return None,
            };
            let message = cur.str("message").ok()?.to_owned();
            let outcome = match code {
                0 if message.is_empty() => PostOutcome::Completed,
                1 => PostOutcome::Failed(message),
                2 => PostOutcome::Panicked(message),
                3 => PostOutcome::BudgetExceeded(message),
                _ => return None,
            };
            let n = cur.varint().ok()?;
            // A count larger than the bytes left is corrupt, not an
            // allocation request.
            if n > cur.remaining() as u64 {
                return None;
            }
            let mut post = Vec::with_capacity(n as usize);
            for _ in 0..n {
                if cur.next_tag().ok()? != REC_POST {
                    return None;
                }
                post.push(cur.read_entry().ok()?);
            }
            Record::Trace((Arc::new(PostTrace::new(post, completes)), outcome))
        }
        REC_REF => Record::Ref(cur.varint().ok()?),
        _ => return None,
    };
    (cur.remaining() == 0).then_some((key, record))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xftrace::{Op, SourceLoc, Stage, TraceEntry};

    fn traced(addr: u64, completes: bool, outcome: PostOutcome) -> Traced {
        let read = TraceEntry {
            op: Op::Read { addr, size: 8 },
            loc: SourceLoc::synthetic("<store-test>"),
            tid: 1,
            stage: Stage::Post,
            internal: false,
            checked: true,
        };
        (Arc::new(PostTrace::new(vec![read], completes)), outcome)
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("xfs-test-{}-{name}", std::process::id()));
        std::fs::remove_file(&p).ok();
        p
    }

    fn open(path: &Path, opener: Opener) -> Result<Store, XfError> {
        Store::open(path, opener, "fp", "digest")
    }

    /// A store with an executed trace at 0, a replay of it at 1 and a
    /// second executed trace at 2, all in plan 0.
    fn written(path: &Path) -> Vec<u8> {
        let store = open(path, Opener::Journal).unwrap();
        let failed = traced(0x40, false, PostOutcome::Failed("boom".into()));
        store.append(0, 0, Origin::Executed, &failed);
        store.append(0, 1, Origin::Replayed(0), &failed);
        store.append(
            0,
            2,
            Origin::Executed,
            &traced(0x80, true, PostOutcome::Completed),
        );
        store.append(0, 3, Origin::Stored, &failed);
        store.flush().unwrap();
        std::fs::read(path).unwrap()
    }

    #[test]
    fn records_round_trip_and_references_resolve() {
        let path = tmp("roundtrip.xfj");
        written(&path);
        let store = open(&path, Opener::Resume).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(store.loaded(), 3, "a stored hit appends nothing");
        assert!(store.bytes_read() > 0);
        let (post, outcome) = store.get(0, 1).unwrap();
        assert_eq!(*outcome, PostOutcome::Failed("boom".into()));
        assert_eq!(
            post.entries(),
            traced(0x40, false, PostOutcome::Completed).0.entries()
        );
        assert!(
            Arc::ptr_eq(post, &store.get(0, 0).unwrap().0),
            "a replay shares its trace"
        );
        assert!(store.get(0, 2).unwrap().0.completes());
        assert!(store.get(1, 0).is_none(), "plans are namespaced");
    }

    #[test]
    fn a_foreign_header_is_an_error_on_resume_and_a_cold_start_for_a_cache() {
        let path = tmp("foreign.xfj");
        let good = written(&path);
        let other = Store::open(&path, Opener::Resume, "other", "digest").unwrap_err();
        assert!(
            matches!(&other, XfError::Journal(m) if m.contains("different run")),
            "{other:?}"
        );
        for (bytes, why) in [
            (&good[..3], "torn header"),
            (&b"XFJ1\x03old"[..], "not an XFS1"),
        ] {
            std::fs::write(&path, bytes).unwrap();
            let err = open(&path, Opener::Resume).unwrap_err();
            assert!(
                matches!(&err, XfError::Journal(m) if m.contains(why)),
                "{err:?}"
            );
        }
        std::fs::write(&path, &good).unwrap();
        let cold = Store::open(&path, Opener::Cache, "fp", "other digest").unwrap();
        assert_eq!((cold.loaded(), cold.bytes_read()), (0, 0));
        assert_eq!(open(&path, Opener::Cache).unwrap().loaded(), 0, "replaced");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_torn_or_flipped_tail_loses_records_and_is_cut_back() {
        let path = tmp("torn.xfj");
        let good = written(&path);
        for cut in [good.len() - 1, good.len() - 9] {
            std::fs::write(&path, &good[..cut]).unwrap();
            let store = open(&path, Opener::Resume).unwrap();
            assert_eq!(store.loaded(), 2, "cut {cut}");
            // The torn record is gone from the file, so a new one parses.
            store.append(
                0,
                2,
                Origin::Executed,
                &traced(0xc0, false, PostOutcome::Completed),
            );
            store.flush().unwrap();
            assert_eq!(
                open(&path, Opener::Resume).unwrap().loaded(),
                3,
                "cut {cut}"
            );
        }
        let mut flipped = good.clone();
        *flipped.last_mut().unwrap() ^= 1;
        std::fs::write(&path, &flipped).unwrap();
        assert_eq!(open(&path, Opener::Cache).unwrap().loaded(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_reference_whose_trace_was_lost_is_dropped() {
        let path = tmp("dangling.xfj");
        let store = open(&path, Opener::Journal).unwrap();
        store.append(
            0,
            5,
            Origin::Replayed(4),
            &traced(0, false, PostOutcome::Completed),
        );
        store.flush().unwrap();
        assert_eq!(open(&path, Opener::Resume).unwrap().loaded(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_fresh_store_leaves_no_temporary_file_and_a_warm_run_writes_nothing() {
        let dir = tmp("fresh-dir");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.xfc");
        let bytes = written(&path);
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["s.xfc"]);
        let warm = open(&path, Opener::Cache).unwrap();
        warm.append(0, 0, Origin::Stored, warm.get(0, 0).unwrap());
        warm.flush().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        std::fs::remove_dir_all(&dir).ok();
    }
}
