//! Cross-run equivalence-class cache: the campaign server's headline
//! optimization.
//!
//! Equivalence-class pruning ([`crate::Pruning`]) already collapses the
//! failure points *within* one run: every member of a persistence-state
//! class replays the representative's post-failure trace instead of
//! executing its own. A detection *campaign* — the same program analyzed
//! again and again from CI — repeats that work across runs: an unchanged
//! program produces the same classes every time, and every run re-executes
//! one representative per class.
//!
//! [`ClassCache`] persists the representatives. The file is keyed by the
//! **config fingerprint** (the journal fingerprint: workload name plus
//! every report-affecting configuration axis) and a caller-supplied
//! **program digest** (operation counts and injected bugs for named
//! workloads, a content hash for uploaded artifacts). A warm run whose
//! header matches serves each known class straight from the cache — zero
//! post-failure executions for an unchanged program — while a header
//! mismatch silently invalidates the file and the run starts cold.
//!
//! # Format
//!
//! The file is binary and stores each class's post-failure trace in the
//! entry records of [`xftrace::codec`], the codec the `.xft` trace format
//! uses (one string table and one delta state for the whole file, thread
//! ids included). Integers are LEB128 varints, strings are
//! varint-length-prefixed UTF-8.
//!
//! ```text
//! file    := "XFC1" version:u8 fingerprint:string digest:string
//!            n_classes:varint class* fnv1a:u64le
//! class   := ns:varint key:varint outcome:u8 completes:u8 message:string
//!            n_post:varint entry-record*
//! outcome := 0 completed | 1 failed | 2 panicked | 3 budget exceeded
//! completes := 0 | 1 (the run requested completeDetection)
//! ```
//!
//! Version 2 added `completes`: a warm hit of a class whose representative
//! requested `completeDetection` stops the warm run where the cold run
//! stopped. Version 1 files start cold.
//!
//! The header is checked before any class is decoded, then the FNV-1a
//! trailer over every preceding byte. A header mismatch, a trailer
//! mismatch, a short file, any decode error, or a file in another format
//! (such as the JSON documents of earlier builds) is a clean cold start.
//! Saves write a temporary file next to the cache and `rename` it into
//! place, so a reader sees either the old file or the new one, never a
//! torn write, and concurrent savers of one path never interleave.
//!
//! Soundness is exactly the in-run pruning invariant: an equal persistence
//! fingerprint implies an equal crash state, so the stored representative
//! trace is the trace this run's own execution would have produced. The
//! cache therefore never changes a report, only elides executions, and the
//! fingerprint header pins every axis that could perturb the trace.
//! Multi-plan schedule sweeps salt the class key with the plan index
//! (`ns`): plan expansion is deterministic, so plan *i* of a repeat run
//! reuses plan *i*'s classes and nothing else.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use xftrace::codec::{EntryCursor, EntryWriter, REC_POST};
use xftrace::fnv::fnv1a;
use xftrace::varint::{write_str, write_varint};

use crate::error::XfError;
use crate::plan::{PostOutcome, PostTrace};

const MAGIC: &[u8; 4] = b"XFC1";
/// Format version behind [`MAGIC`]. Bumping it invalidates every existing
/// cache file (readers treat a mismatch as a cold start).
const VERSION: u8 = 2;
/// Bytes of the FNV-1a trailer.
const TRAILER: usize = 8;

/// One warmed equivalence class: the representative's post-failure trace
/// (with its `completeDetection` request) and outcome, ready to replay
/// against a warm member's own shadow checkpoint.
#[derive(Debug)]
pub(crate) struct WarmClass {
    /// Shared, so a warm hit ships the trace by refcount and its read
    /// index is built once per run.
    pub(crate) post: Arc<PostTrace>,
    /// Replayed verbatim on a warm hit, so outcome findings (errors,
    /// panics, budget kills) stay byte-identical across runs. A replayed
    /// budget kill never counts as a kill.
    pub(crate) outcome: PostOutcome,
}

/// Classes by `(ns, key)`: schedule-plan namespace and persistence
/// fingerprint.
type Classes = HashMap<(u64, u64), WarmClass>;

/// A persistent cross-run class cache bound to one cache file.
///
/// Opened by the [`Session`](crate::Session) when
/// [`SessionBuilder::class_cache`](crate::SessionBuilder::class_cache) is
/// set; shared across the per-plan runs of a schedule sweep and saved once
/// when the run (or sweep) completes.
#[derive(Debug)]
pub(crate) struct ClassCache {
    path: PathBuf,
    fingerprint: String,
    digest: String,
    /// Classes loaded from a matching cache file, immutable for the run.
    warm: Classes,
    /// Classes discovered (executed) this run, merged into the file on
    /// [`ClassCache::save`].
    export: Mutex<Classes>,
    /// The file already holds exactly the warm set: it decoded cleanly. A
    /// save with nothing exported would write the same bytes back, so it
    /// is skipped.
    in_sync: bool,
    bytes_read: u64,
}

impl ClassCache {
    /// Opens the cache at `path`. A missing or unreadable file, a header
    /// mismatch (different format version, config fingerprint or program
    /// digest), a trailer mismatch or a decode error all start cold — the
    /// stale file is simply overwritten on save. Invalidation is therefore
    /// automatic: any change to the program or to a report-affecting
    /// configuration axis changes the header, and the old classes are
    /// never consulted.
    pub(crate) fn open(path: &Path, fingerprint: &str, digest: &str) -> ClassCache {
        let warm = std::fs::read(path)
            .ok()
            .and_then(|buf| Some((decode(&buf, fingerprint, digest)?, buf.len() as u64)));
        let in_sync = warm.is_some();
        let (warm, bytes_read) = warm.unwrap_or_default();
        ClassCache {
            path: path.to_owned(),
            fingerprint: fingerprint.to_owned(),
            digest: digest.to_owned(),
            warm,
            export: Mutex::new(HashMap::new()),
            in_sync,
            bytes_read,
        }
    }

    /// Writes the merged (warm ∪ newly discovered) class set back to the
    /// cache file, classes sorted by `(ns, key)` so repeated saves of the
    /// same state are byte-identical. A fully warm run that discovered
    /// nothing leaves the file untouched: it already holds these bytes.
    pub(crate) fn save(&self) -> Result<(), XfError> {
        let export = self.export.lock().expect("cache export lock");
        if export.is_empty() && self.in_sync {
            return Ok(());
        }
        let mut classes: Vec<(&(u64, u64), &WarmClass)> =
            self.warm.iter().chain(export.iter()).collect();
        classes.sort_by_key(|(k, _)| **k);
        let bytes = encode(&self.fingerprint, &self.digest, &classes);
        write_atomically(&self.path, &bytes)?;
        Ok(())
    }

    /// Classes loaded warm from the file at open.
    pub(crate) fn loaded(&self) -> u64 {
        self.warm.len() as u64
    }

    /// Bytes of cache file consumed at open (zero on a cold start).
    pub(crate) fn bytes_read(&self) -> u64 {
        self.bytes_read
    }
}

/// The on-disk code and message of an outcome.
fn outcome_parts(outcome: &PostOutcome) -> (u8, &str) {
    match outcome {
        PostOutcome::Completed => (0, ""),
        PostOutcome::Failed(m) => (1, m),
        PostOutcome::Panicked(m) => (2, m),
        PostOutcome::BudgetExceeded(m) => (3, m),
    }
}

/// Inverse of [`outcome_parts`].
fn outcome_from(code: u8, message: &str) -> Option<PostOutcome> {
    let message = message.to_owned();
    Some(match code {
        0 => PostOutcome::Completed,
        1 => PostOutcome::Failed(message),
        2 => PostOutcome::Panicked(message),
        3 => PostOutcome::BudgetExceeded(message),
        _ => return None,
    })
}

/// Serializes `classes` (already in `(ns, key)` order) into a cache file.
fn encode(fingerprint: &str, digest: &str, classes: &[(&(u64, u64), &WarmClass)]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.push(VERSION);
    write_str(&mut buf, fingerprint).expect("vec write");
    write_str(&mut buf, digest).expect("vec write");
    write_varint(&mut buf, classes.len() as u64).expect("vec write");
    let mut entries = EntryWriter::new(true);
    for (&(ns, key), class) in classes {
        let (code, message) = outcome_parts(&class.outcome);
        write_varint(&mut buf, ns).expect("vec write");
        write_varint(&mut buf, key).expect("vec write");
        buf.push(code);
        buf.push(u8::from(class.post.completes()));
        write_str(&mut buf, message).expect("vec write");
        let post = class.post.entries();
        write_varint(&mut buf, post.len() as u64).expect("vec write");
        for e in post {
            entries
                .write_entry(&mut buf, REC_POST, e)
                .expect("vec write");
        }
    }
    let sum = fnv1a(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

/// Parses a cache file into its classes, or `None` (a cold start) on any
/// mismatch or malformation.
fn decode(buf: &[u8], fingerprint: &str, digest: &str) -> Option<Classes> {
    let body = buf.get(..buf.len().checked_sub(TRAILER)?)?;
    let mut cur = EntryCursor::new(body);
    let header_matches = cur.take(MAGIC.len()).ok()? == MAGIC
        && cur.u8().ok()? == VERSION
        && cur.str("fingerprint").ok()? == fingerprint
        && cur.str("digest").ok()? == digest;
    let trailer = u64::from_le_bytes(buf[body.len()..].try_into().ok()?);
    if !header_matches || trailer != fnv1a(body) {
        return None;
    }
    cur.set_tids(true);
    let in_file = cur.varint().ok()?;
    let mut warm = HashMap::new();
    for _ in 0..in_file {
        let ns = cur.varint().ok()?;
        let key = cur.varint().ok()?;
        let code = cur.u8().ok()?;
        let completes = match cur.u8().ok()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let outcome = outcome_from(code, cur.str("message").ok()?)?;
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
        let post = Arc::new(PostTrace::new(post, completes));
        if warm
            .insert((ns, key), WarmClass { post, outcome })
            .is_some()
        {
            return None;
        }
    }
    (cur.remaining() == 0).then_some(warm)
}

/// Replaces `path` with `bytes` through a uniquely named temporary file in
/// the same directory and a `rename`, so readers and concurrent savers
/// only ever see complete files.
fn write_atomically(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut name = path.file_name().unwrap_or_default().to_owned();
    name.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(name);
    let result = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

/// The engine-facing handle: one per engine run, namespacing class keys by
/// schedule-plan index and counting this run's hits and misses (the store
/// itself may be shared across the plans of a sweep).
#[derive(Debug, Clone)]
pub(crate) struct CacheHandle {
    store: Arc<ClassCache>,
    ns: u64,
    hits: Arc<AtomicU64>,
    misses: Arc<AtomicU64>,
}

impl CacheHandle {
    pub(crate) fn new(store: Arc<ClassCache>, ns: u64) -> CacheHandle {
        CacheHandle {
            store,
            ns,
            hits: Arc::new(AtomicU64::new(0)),
            misses: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Looks a class fingerprint up in the warm set, counting the hit or
    /// miss.
    pub(crate) fn lookup(&self, key: u64) -> Option<&WarmClass> {
        match self.store.warm.get(&(self.ns, key)) {
            Some(class) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(class)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// As [`CacheHandle::lookup`] without touching the counters (used by
    /// the detection frontend to fetch a class the planner already counted).
    pub(crate) fn peek(&self, key: u64) -> Option<&WarmClass> {
        self.store.warm.get(&(self.ns, key))
    }

    /// Registers a newly executed class representative for export. Classes
    /// already warm (or already exported) are left alone — first wins,
    /// like the in-run prune cache.
    pub(crate) fn export(&self, key: u64, post: &Arc<PostTrace>, outcome: &PostOutcome) {
        if self.store.warm.contains_key(&(self.ns, key)) {
            return;
        }
        let mut export = self.store.export.lock().expect("cache export lock");
        export.entry((self.ns, key)).or_insert_with(|| WarmClass {
            post: Arc::clone(post),
            outcome: outcome.clone(),
        });
    }

    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub(crate) fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub(crate) fn loaded(&self) -> u64 {
        self.store.loaded()
    }

    pub(crate) fn bytes_read(&self) -> u64 {
        self.store.bytes_read()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xftrace::{Op, SourceLoc, TraceEntry};

    fn entry() -> TraceEntry {
        TraceEntry {
            op: Op::Read {
                addr: 0x40,
                size: 8,
            },
            loc: SourceLoc::synthetic("<cache-test>"),
            tid: 0,
            stage: xftrace::Stage::Post,
            internal: false,
            checked: true,
        }
    }

    fn trace(entries: Vec<TraceEntry>, completes: bool) -> Arc<PostTrace> {
        Arc::new(PostTrace::new(entries, completes))
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("xfcache-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn round_trips_classes_through_the_file() {
        let path = tmp("roundtrip.xfc");
        std::fs::remove_file(&path).ok();

        let cold = ClassCache::open(&path, "fp", "digest");
        assert_eq!(cold.loaded(), 0);
        let h = CacheHandle::new(Arc::new(cold), 0);
        assert!(h.lookup(42).is_none());
        h.export(
            42,
            &trace(vec![entry()], true),
            &PostOutcome::Failed("boom".into()),
        );
        h.store.save().unwrap();

        let warm = ClassCache::open(&path, "fp", "digest");
        assert_eq!(warm.loaded(), 1);
        assert!(warm.bytes_read() > 0);
        let h = CacheHandle::new(Arc::new(warm), 0);
        let class = h.lookup(42).expect("warm class");
        assert_eq!(class.post.entries(), [entry()]);
        assert!(class.post.completes());
        assert_eq!(class.outcome, PostOutcome::Failed("boom".into()));
        assert_eq!(h.hits(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_mismatch_starts_cold() {
        let path = tmp("mismatch.xfc");
        std::fs::remove_file(&path).ok();
        let cache = Arc::new(ClassCache::open(&path, "fp-a", "d1"));
        CacheHandle::new(Arc::clone(&cache), 0).export(
            1,
            &trace(Vec::new(), false),
            &PostOutcome::Completed,
        );
        cache.save().unwrap();

        assert_eq!(ClassCache::open(&path, "fp-b", "d1").loaded(), 0);
        assert_eq!(ClassCache::open(&path, "fp-a", "d2").loaded(), 0);
        assert_eq!(ClassCache::open(&path, "fp-a", "d1").loaded(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn namespaces_keep_plans_apart() {
        let path = tmp("ns.xfc");
        std::fs::remove_file(&path).ok();
        let cache = Arc::new(ClassCache::open(&path, "fp", "d"));
        CacheHandle::new(Arc::clone(&cache), 0).export(
            9,
            &trace(Vec::new(), false),
            &PostOutcome::Completed,
        );
        cache.save().unwrap();

        let warm = Arc::new(ClassCache::open(&path, "fp", "d"));
        assert!(CacheHandle::new(Arc::clone(&warm), 0).lookup(9).is_some());
        assert!(CacheHandle::new(Arc::clone(&warm), 1).lookup(9).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_files_start_cold() {
        let path = tmp("corrupt.xfc");
        // Foreign bytes, and the JSON document earlier builds wrote.
        for junk in [
            &b"{ not json"[..],
            br#"{"schema_version":1,"fingerprint":"fp","digest":"d","classes":[]}"#,
        ] {
            std::fs::write(&path, junk).unwrap();
            let cache = ClassCache::open(&path, "fp", "d");
            assert_eq!((cache.loaded(), cache.bytes_read()), (0, 0));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_bad_trailer_or_a_short_file_starts_cold() {
        let path = tmp("trailer.xfc");
        std::fs::remove_file(&path).ok();
        let cache = Arc::new(ClassCache::open(&path, "fp", "d"));
        CacheHandle::new(Arc::clone(&cache), 0).export(
            3,
            &trace(vec![entry()], false),
            &PostOutcome::Completed,
        );
        cache.save().unwrap();
        let good = std::fs::read(&path).unwrap();
        assert_eq!(&good[..4], MAGIC);
        assert_eq!(ClassCache::open(&path, "fp", "d").loaded(), 1);

        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 1;
        std::fs::write(&path, &bad).unwrap();
        assert_eq!(ClassCache::open(&path, "fp", "d").loaded(), 0);
        for cut in [0, 4, good.len() - TRAILER, good.len() - 1] {
            std::fs::write(&path, &good[..cut]).unwrap();
            assert_eq!(ClassCache::open(&path, "fp", "d").loaded(), 0, "cut {cut}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_1_files_start_cold() {
        let path = tmp("v1.xfc");
        std::fs::remove_file(&path).ok();
        let cache = Arc::new(ClassCache::open(&path, "fp", "d"));
        CacheHandle::new(Arc::clone(&cache), 0).export(
            3,
            &trace(vec![entry()], false),
            &PostOutcome::Completed,
        );
        cache.save().unwrap();
        let mut old = std::fs::read(&path).unwrap();
        old[MAGIC.len()] = 1;
        let body = old.len() - TRAILER;
        let sum = fnv1a(&old[..body]);
        old[body..].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &old).unwrap();
        assert_eq!(ClassCache::open(&path, "fp", "d").loaded(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn saves_leave_no_temporary_files_behind() {
        let dir = tmp("atomic-dir");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.xfc");
        let cache = Arc::new(ClassCache::open(&path, "fp", "d"));
        CacheHandle::new(Arc::clone(&cache), 0).export(
            1,
            &trace(vec![entry()], false),
            &PostOutcome::Completed,
        );
        cache.save().unwrap();
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["c.xfc"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_classes_are_never_re_exported() {
        let path = tmp("no-reexport.xfc");
        std::fs::remove_file(&path).ok();
        let cache = Arc::new(ClassCache::open(&path, "fp", "d"));
        CacheHandle::new(Arc::clone(&cache), 0).export(
            5,
            &trace(vec![entry()], false),
            &PostOutcome::Completed,
        );
        cache.save().unwrap();
        let first = std::fs::read(&path).unwrap();

        let warm = Arc::new(ClassCache::open(&path, "fp", "d"));
        let h = CacheHandle::new(Arc::clone(&warm), 0);
        assert!(h.lookup(5).is_some());
        h.export(
            5,
            &trace(Vec::new(), false),
            &PostOutcome::Failed("late".into()),
        );
        warm.save().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), first, "first wins");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn warm_runs_that_discover_nothing_leave_the_file_alone() {
        let path = tmp("untouched.xfc");
        std::fs::remove_file(&path).ok();
        let cache = Arc::new(ClassCache::open(&path, "fp", "d"));
        CacheHandle::new(Arc::clone(&cache), 0).export(
            5,
            &trace(vec![entry()], false),
            &PostOutcome::Completed,
        );
        cache.save().unwrap();

        let warm = Arc::new(ClassCache::open(&path, "fp", "d"));
        assert!(CacheHandle::new(Arc::clone(&warm), 0).lookup(5).is_some());
        // Had the warm save written at all, it would replace this marker.
        std::fs::write(&path, b"marker").unwrap();
        warm.save().unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"marker",
            "nothing new, no write"
        );

        // A class discovered on top of the warm set is merged and written.
        CacheHandle::new(Arc::clone(&warm), 0).export(
            6,
            &trace(vec![entry()], false),
            &PostOutcome::Completed,
        );
        warm.save().unwrap();
        assert_eq!(ClassCache::open(&path, "fp", "d").loaded(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cold_starts_overwrite_a_stale_file_even_with_nothing_to_export() {
        let path = tmp("stale.xfc");
        std::fs::remove_file(&path).ok();
        let cache = Arc::new(ClassCache::open(&path, "fp-a", "d"));
        CacheHandle::new(Arc::clone(&cache), 0).export(
            1,
            &trace(Vec::new(), false),
            &PostOutcome::Completed,
        );
        cache.save().unwrap();

        let other = ClassCache::open(&path, "fp-b", "d");
        assert_eq!(other.loaded(), 0);
        other.save().unwrap();
        assert_eq!(
            ClassCache::open(&path, "fp-a", "d").loaded(),
            0,
            "stale header replaced"
        );
        std::fs::remove_file(&path).ok();
    }
}
