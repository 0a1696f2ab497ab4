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
//! [`ClassCache`] persists the representatives. The on-disk document is
//! keyed by the **config fingerprint** (the journal fingerprint: workload
//! name plus every report-affecting configuration axis) and a caller-
//! supplied **program digest** (operation counts and injected bugs for
//! named workloads, a content hash for uploaded artifacts). A warm run
//! whose header matches serves each known class straight from the cache —
//! zero post-failure executions for an unchanged program — while a header
//! mismatch silently invalidates the file and the run starts cold.
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

use serde::{Deserialize, Serialize};
use xftrace::{OwnedTraceEntry, TraceEntry};

use crate::error::XfError;
use crate::plan::PostOutcome;

/// Schema version of the on-disk cache document. Bumping it invalidates
/// every existing cache file (readers treat a mismatch as a cold start).
const CACHE_SCHEMA_VERSION: u32 = 1;

/// One warmed equivalence class: the representative's post-failure trace
/// and outcome, ready to replay against a warm member's own shadow
/// checkpoint.
#[derive(Debug)]
pub(crate) struct WarmClass {
    pub(crate) post: Vec<TraceEntry>,
    /// Replayed verbatim on a warm hit, so outcome findings (errors,
    /// panics, budget kills) stay byte-identical across runs. A replayed
    /// budget kill never counts as a kill.
    pub(crate) outcome: PostOutcome,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct CacheClassDoc {
    ns: u64,
    key: u64,
    outcome: String,
    message: String,
    post: Vec<OwnedTraceEntry>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct CacheDoc {
    schema_version: u32,
    fingerprint: String,
    digest: String,
    classes: Vec<CacheClassDoc>,
}

/// A class discovered (executed) this run, staged for [`ClassCache::save`].
type ExportedClass = (Vec<OwnedTraceEntry>, PostOutcome);

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
    warm: HashMap<(u64, u64), WarmClass>,
    /// Classes discovered (executed) this run, merged into the file on
    /// [`ClassCache::save`].
    export: Mutex<HashMap<(u64, u64), ExportedClass>>,
    /// The file already holds exactly the warm set: its header matched and
    /// every class in it loaded. A save with nothing exported would write
    /// the same bytes back, so it is skipped.
    in_sync: bool,
    loaded: u64,
    bytes_read: u64,
}

impl ClassCache {
    /// Opens the cache at `path`. A missing file, a parse failure, or a
    /// header mismatch (different schema version, config fingerprint or
    /// program digest) all start cold — the stale file is simply
    /// overwritten on save. Invalidation is therefore automatic: any
    /// change to the program or to a report-affecting configuration axis
    /// changes the header, and the old classes are never consulted.
    pub(crate) fn open(path: &Path, fingerprint: &str, digest: &str) -> ClassCache {
        let mut warm = HashMap::new();
        let mut loaded = 0;
        let mut bytes_read = 0;
        let mut in_sync = false;
        if let Ok(raw) = std::fs::read_to_string(path) {
            if let Ok(doc) = serde_json::from_str::<CacheDoc>(&raw) {
                if doc.schema_version == CACHE_SCHEMA_VERSION
                    && doc.fingerprint == fingerprint
                    && doc.digest == digest
                {
                    bytes_read = raw.len() as u64;
                    let in_file = doc.classes.len();
                    for c in doc.classes {
                        let Some(outcome) = PostOutcome::from_parts(&c.outcome, c.message) else {
                            continue;
                        };
                        warm.insert(
                            (c.ns, c.key),
                            WarmClass {
                                post: c.post.iter().map(OwnedTraceEntry::to_entry).collect(),
                                outcome,
                            },
                        );
                    }
                    loaded = warm.len() as u64;
                    in_sync = warm.len() == in_file;
                }
            }
        }
        ClassCache {
            path: path.to_owned(),
            fingerprint: fingerprint.to_owned(),
            digest: digest.to_owned(),
            warm,
            export: Mutex::new(HashMap::new()),
            in_sync,
            loaded,
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
        let mut classes: Vec<CacheClassDoc> = self
            .warm
            .iter()
            .map(|(&(ns, key), class)| CacheClassDoc {
                ns,
                key,
                outcome: class.outcome.kind().to_owned(),
                message: class.outcome.message().to_owned(),
                post: class.post.iter().copied().map(Into::into).collect(),
            })
            .chain(
                export
                    .iter()
                    .map(|(&(ns, key), (post, outcome))| CacheClassDoc {
                        ns,
                        key,
                        outcome: outcome.kind().to_owned(),
                        message: outcome.message().to_owned(),
                        post: post.clone(),
                    }),
            )
            .collect();
        classes.sort_by_key(|c| (c.ns, c.key));
        let doc = CacheDoc {
            schema_version: CACHE_SCHEMA_VERSION,
            fingerprint: self.fingerprint.clone(),
            digest: self.digest.clone(),
            classes,
        };
        let json = serde_json::to_string(&doc)
            .map_err(|e| XfError::Codec(format!("class cache serialization failed: {e}")))?;
        std::fs::write(&self.path, json)?;
        Ok(())
    }

    /// Classes loaded warm from the file at open.
    pub(crate) fn loaded(&self) -> u64 {
        self.loaded
    }

    /// Bytes of cache file consumed at open (zero on a cold start).
    pub(crate) fn bytes_read(&self) -> u64 {
        self.bytes_read
    }
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
    /// the parallel merge stage to re-resolve a class it already counted).
    pub(crate) fn peek(&self, key: u64) -> Option<&WarmClass> {
        self.store.warm.get(&(self.ns, key))
    }

    /// Registers a newly executed class representative for export. Classes
    /// already warm (or already exported) are left alone — first wins,
    /// like the in-run prune cache.
    pub(crate) fn export(&self, key: u64, post: &[TraceEntry], outcome: &PostOutcome) {
        if self.store.warm.contains_key(&(self.ns, key)) {
            return;
        }
        let mut export = self.store.export.lock().expect("cache export lock");
        export.entry((self.ns, key)).or_insert_with(|| {
            (
                post.iter().copied().map(Into::into).collect(),
                outcome.clone(),
            )
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

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("xfcache-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn round_trips_classes_through_the_file() {
        let path = tmp("roundtrip.json");
        std::fs::remove_file(&path).ok();

        let cold = ClassCache::open(&path, "fp", "digest");
        assert_eq!(cold.loaded(), 0);
        let h = CacheHandle::new(Arc::new(cold), 0);
        assert!(h.lookup(42).is_none());
        h.export(42, &[entry()], &PostOutcome::Failed("boom".into()));
        h.store.save().unwrap();

        let warm = ClassCache::open(&path, "fp", "digest");
        assert_eq!(warm.loaded(), 1);
        assert!(warm.bytes_read() > 0);
        let h = CacheHandle::new(Arc::new(warm), 0);
        let class = h.lookup(42).expect("warm class");
        assert_eq!(class.post.len(), 1);
        assert_eq!(class.outcome, PostOutcome::Failed("boom".into()));
        assert_eq!(h.hits(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_mismatch_starts_cold() {
        let path = tmp("mismatch.json");
        std::fs::remove_file(&path).ok();
        let cache = Arc::new(ClassCache::open(&path, "fp-a", "d1"));
        CacheHandle::new(Arc::clone(&cache), 0).export(1, &[], &PostOutcome::Completed);
        cache.save().unwrap();

        assert_eq!(ClassCache::open(&path, "fp-b", "d1").loaded(), 0);
        assert_eq!(ClassCache::open(&path, "fp-a", "d2").loaded(), 0);
        assert_eq!(ClassCache::open(&path, "fp-a", "d1").loaded(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn namespaces_keep_plans_apart() {
        let path = tmp("ns.json");
        std::fs::remove_file(&path).ok();
        let cache = Arc::new(ClassCache::open(&path, "fp", "d"));
        CacheHandle::new(Arc::clone(&cache), 0).export(9, &[], &PostOutcome::Completed);
        cache.save().unwrap();

        let warm = Arc::new(ClassCache::open(&path, "fp", "d"));
        assert!(CacheHandle::new(Arc::clone(&warm), 0).lookup(9).is_some());
        assert!(CacheHandle::new(Arc::clone(&warm), 1).lookup(9).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_files_start_cold() {
        let path = tmp("corrupt.json");
        std::fs::write(&path, b"{ not json").unwrap();
        assert_eq!(ClassCache::open(&path, "fp", "d").loaded(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn warm_classes_are_never_re_exported() {
        let path = tmp("no-reexport.json");
        std::fs::remove_file(&path).ok();
        let cache = Arc::new(ClassCache::open(&path, "fp", "d"));
        CacheHandle::new(Arc::clone(&cache), 0).export(5, &[entry()], &PostOutcome::Completed);
        cache.save().unwrap();
        let first = std::fs::read(&path).unwrap();

        let warm = Arc::new(ClassCache::open(&path, "fp", "d"));
        let h = CacheHandle::new(Arc::clone(&warm), 0);
        assert!(h.lookup(5).is_some());
        h.export(5, &[], &PostOutcome::Failed("late".into()));
        warm.save().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), first, "first wins");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn warm_runs_that_discover_nothing_leave_the_file_alone() {
        let path = tmp("untouched.json");
        std::fs::remove_file(&path).ok();
        let cache = Arc::new(ClassCache::open(&path, "fp", "d"));
        CacheHandle::new(Arc::clone(&cache), 0).export(5, &[entry()], &PostOutcome::Completed);
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
        CacheHandle::new(Arc::clone(&warm), 0).export(6, &[entry()], &PostOutcome::Completed);
        warm.save().unwrap();
        assert_eq!(ClassCache::open(&path, "fp", "d").loaded(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cold_starts_overwrite_a_stale_file_even_with_nothing_to_export() {
        let path = tmp("stale.json");
        std::fs::remove_file(&path).ok();
        let cache = Arc::new(ClassCache::open(&path, "fp-a", "d"));
        CacheHandle::new(Arc::clone(&cache), 0).export(1, &[], &PostOutcome::Completed);
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
