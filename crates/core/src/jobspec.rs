//! `JobSpec` — one serializable description of a detection job.
//!
//! Every way of launching detection (the `xfd report`/`record`/`analyze`
//! CLI subcommands, the `xfd serve` campaign server, tests) historically
//! re-plumbed the same two dozen knobs through its own flag structs. A
//! [`JobSpec`] is the single wire form: a flat JSON object whose fields are
//! all optional (absent ⇒ default), with typed accessors that parse the
//! stringly axes (`mode`, `pruning`, `schedule`) into their engine types
//! and reject malformed values with the same [`ConfigError`]s that
//! [`XfConfig::validate`] and the session builder use.
//! `TryFrom<JobSpec> for Session` turns a validated spec into a runnable
//! [`Session`] in one step.
//!
//! The codec is deliberately forgiving on *absence* (a hand-written
//! `{"workload": "btree"}` is a complete job) and strict on *content*
//! (unknown keys and malformed values are rejected, so a typoed field
//! never silently reverts to a default).

use std::time::Duration;

use pmem::Budget;
use serde::{Deserialize, Serialize, Value};

use crate::error::ConfigError;
use crate::prune::Pruning;
use crate::xfrun::{Mode, Session, SessionBuilder};
use crate::XfConfig;

/// A serializable detection job: source + configuration, every field
/// optional.
///
/// ```
/// use xfdetector::{JobSpec, Mode};
///
/// let spec = JobSpec::from_json(r#"{"workload": "btree", "mode": "parallel"}"#).unwrap();
/// assert_eq!(spec.workload.as_deref(), Some("btree"));
/// assert_eq!(spec.mode().unwrap(), Mode::Parallel);
/// // Round-trips through JSON:
/// let again = JobSpec::from_json(&spec.to_json()).unwrap();
/// assert_eq!(spec, again);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct JobSpec {
    /// Registered workload name (`btree`, `hashmap_tx`, …). One of
    /// `workload`, `trace` or `program` identifies the program under test.
    pub workload: Option<String>,
    /// Path to a recorded `.xft` trace to analyze offline.
    pub trace: Option<String>,
    /// Path to a saved `.fuzz` program (`xffuzz v1` / `xffuzz c1` text).
    pub program: Option<String>,
    /// Pre-failure operations (absent: the workload's validation size).
    pub ops: Option<u64>,
    /// Pre-population operations during setup (absent: 0).
    pub init: Option<u64>,
    /// Bug injections by registered id (empty: none).
    pub bugs: Vec<String>,
    /// Execution mode: `batch`, `stream` or `parallel` (absent: batch).
    pub mode: Option<String>,
    /// Worker threads for parallel mode (absent/0: all cores).
    pub workers: Option<u64>,
    /// Trace-FIFO capacity in messages for stream mode (absent:
    /// [`crate::DEFAULT_STREAM_CAPACITY`]).
    pub capacity: Option<u64>,
    /// Logical threads for concurrent workloads (absent: 1).
    pub threads: Option<u32>,
    /// Interleaving schedule: `rr`, `seed:N` or `exhaustive:K`.
    pub schedule: Option<String>,
    /// Failure-point pruning: `off` or `equivalence` (absent: off).
    pub pruning: Option<String>,
    /// Persistence domain: `adr`, `eadr` or `cxl:WINDOW` (absent: adr).
    pub domain: Option<String>,
    /// RNG seed for randomized crash policies.
    pub seed: Option<u64>,
    /// Stop injecting failures after this many failure points.
    pub max_failure_points: Option<u64>,
    /// Post-failure wall-time budget in milliseconds.
    pub budget_ms: Option<u64>,
    /// Post-failure trace-entry budget.
    pub budget_entries: Option<u64>,
    /// Check every post-failure read (disables §5.4 optimization 1).
    pub all_reads: Option<bool>,
    /// Elide failure points at PM-quiet ordering points (default true).
    pub skip_empty: Option<bool>,
    /// Inject the final completion failure point (default true).
    pub completion_fp: Option<bool>,
    /// Ablation: failure point before every PM store.
    pub fire_on_every_write: Option<bool>,
    /// Crash-image deduplication (default true).
    pub dedup: Option<bool>,
    /// Write a fresh post-trace store (a resumable run journal) to this
    /// path.
    pub journal: Option<String>,
    /// Resume a killed run from the post-trace store at this path.
    pub resume: Option<String>,
    /// Write machine-readable run metrics JSON to this path.
    pub metrics_out: Option<String>,
    /// Export failing failure points as `.xft` repro traces under this dir.
    pub repro_dir: Option<String>,
    /// Post-trace store file shared across runs as a cache.
    pub class_cache: Option<String>,
    /// Caller-supplied program digest for the post-trace store header.
    pub cache_digest: Option<String>,
}

/// Every key the codec accepts, in serialization order. Unknown keys are
/// rejected at parse time so a typo cannot silently mean "use the default".
const FIELDS: &[&str] = &[
    "workload",
    "trace",
    "program",
    "ops",
    "init",
    "bugs",
    "mode",
    "workers",
    "capacity",
    "threads",
    "schedule",
    "pruning",
    "domain",
    "seed",
    "max_failure_points",
    "budget_ms",
    "budget_entries",
    "all_reads",
    "skip_empty",
    "completion_fp",
    "fire_on_every_write",
    "dedup",
    "journal",
    "resume",
    "metrics_out",
    "repro_dir",
    "class_cache",
    "cache_digest",
];

/// Reads an optional field: a missing key or an explicit `null` both mean
/// "absent" (the derive-macro helper `de_field` errors on missing keys,
/// which would make every hand-written partial job document invalid).
fn opt<T: Deserialize>(v: &Value, key: &str) -> Result<Option<T>, serde::Error> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(field) => T::from_value(field)
            .map(Some)
            .map_err(|e| serde::Error::custom(format!("field `{key}`: {e}"))),
    }
}

impl Deserialize for JobSpec {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let Value::Object(fields) = v else {
            return Err(serde::Error::custom("expected a job object"));
        };
        if let Some((unknown, _)) = fields.iter().find(|(k, _)| !FIELDS.contains(&k.as_str())) {
            return Err(serde::Error::custom(format!(
                "unknown job field `{unknown}`"
            )));
        }
        Ok(JobSpec {
            workload: opt(v, "workload")?,
            trace: opt(v, "trace")?,
            program: opt(v, "program")?,
            ops: opt(v, "ops")?,
            init: opt(v, "init")?,
            bugs: opt(v, "bugs")?.unwrap_or_default(),
            mode: opt(v, "mode")?,
            workers: opt(v, "workers")?,
            capacity: opt(v, "capacity")?,
            threads: opt(v, "threads")?,
            schedule: opt(v, "schedule")?,
            pruning: opt(v, "pruning")?,
            domain: opt(v, "domain")?,
            seed: opt(v, "seed")?,
            max_failure_points: opt(v, "max_failure_points")?,
            budget_ms: opt(v, "budget_ms")?,
            budget_entries: opt(v, "budget_entries")?,
            all_reads: opt(v, "all_reads")?,
            skip_empty: opt(v, "skip_empty")?,
            completion_fp: opt(v, "completion_fp")?,
            fire_on_every_write: opt(v, "fire_on_every_write")?,
            dedup: opt(v, "dedup")?,
            journal: opt(v, "journal")?,
            resume: opt(v, "resume")?,
            metrics_out: opt(v, "metrics_out")?,
            repro_dir: opt(v, "repro_dir")?,
            class_cache: opt(v, "class_cache")?,
            cache_digest: opt(v, "cache_digest")?,
        })
    }
}

/// Parses a `mode` string (`batch`, `stream`, `parallel`).
pub fn parse_mode(v: &str) -> Result<Mode, ConfigError> {
    match v.to_ascii_lowercase().as_str() {
        "batch" => Ok(Mode::Batch),
        "stream" => Ok(Mode::Stream),
        "parallel" => Ok(Mode::Parallel),
        _ => Err(ConfigError::Invalid {
            what: "mode",
            value: v.to_owned(),
            expected: "batch|stream|parallel",
        }),
    }
}

/// Parses a `pruning` string (`off`, `equivalence`).
pub fn parse_pruning(v: &str) -> Result<Pruning, ConfigError> {
    if v.eq_ignore_ascii_case("off") {
        Ok(Pruning::Off)
    } else if v.eq_ignore_ascii_case("equivalence") {
        Ok(Pruning::Equivalence)
    } else {
        Err(ConfigError::Invalid {
            what: "pruning",
            value: v.to_owned(),
            expected: "off|equivalence",
        })
    }
}

/// Parses a `domain` string (`adr`, `eadr`, `cxl:WINDOW`).
pub fn parse_domain(v: &str) -> Result<pmem::PersistDomain, ConfigError> {
    v.parse().map_err(|_| ConfigError::Invalid {
        what: "domain",
        value: v.to_owned(),
        expected: pmem::DOMAIN_EXPECTED,
    })
}

/// Parses a `schedule` string (`rr`, `seed:N`, `exhaustive:K`).
pub fn parse_schedule(v: &str) -> Result<xfsched::ScheduleSpec, ConfigError> {
    if v.eq_ignore_ascii_case("round-robin") {
        return Ok(xfsched::ScheduleSpec::RoundRobin);
    }
    v.parse().map_err(|_| ConfigError::Invalid {
        what: "schedule",
        value: v.to_owned(),
        expected: "rr|seed:N|exhaustive:K",
    })
}

impl JobSpec {
    /// Parses a spec from its JSON form.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Invalid`] when the document is not valid JSON, has an
    /// unknown key, or a field fails to parse. Structural validity only —
    /// use [`JobSpec::validate`] for semantic checks.
    pub fn from_json(json: &str) -> Result<JobSpec, ConfigError> {
        serde_json::from_str(json).map_err(|e| ConfigError::Invalid {
            what: "job spec",
            value: e.to_string(),
            expected: "a JSON object of job fields",
        })
    }

    /// Serializes the spec to its canonical JSON form.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("JobSpec serialization is infallible")
    }

    /// The execution mode (absent: [`Mode::Batch`]).
    pub fn mode(&self) -> Result<Mode, ConfigError> {
        self.mode.as_deref().map_or(Ok(Mode::Batch), parse_mode)
    }

    /// The pruning policy (absent: [`Pruning::Off`]).
    pub fn pruning(&self) -> Result<Pruning, ConfigError> {
        self.pruning
            .as_deref()
            .map_or(Ok(Pruning::Off), parse_pruning)
    }

    /// The persistence domain (absent: [`pmem::PersistDomain::Adr`]).
    pub fn domain(&self) -> Result<pmem::PersistDomain, ConfigError> {
        self.domain
            .as_deref()
            .map_or(Ok(pmem::PersistDomain::Adr), parse_domain)
    }

    /// The interleaving schedule, when one was requested.
    pub fn schedule(&self) -> Result<Option<xfsched::ScheduleSpec>, ConfigError> {
        self.schedule.as_deref().map(parse_schedule).transpose()
    }

    /// The post-failure budget assembled from `budget_ms`/`budget_entries`,
    /// if either is set. Zero values are rejected (a zero budget would kill
    /// every post-failure run before its first entry).
    pub fn budget(&self) -> Result<Option<Budget>, ConfigError> {
        let invalid = |what: &'static str, v: u64| ConfigError::Invalid {
            what,
            value: v.to_string(),
            expected: "a positive integer",
        };
        if self.budget_ms.is_none() && self.budget_entries.is_none() {
            return Ok(None);
        }
        let mut b = Budget::default();
        if let Some(ms) = self.budget_ms {
            if ms == 0 {
                return Err(invalid("budget_ms", ms));
            }
            b = b.with_wall_time(Duration::from_millis(ms));
        }
        if let Some(n) = self.budget_entries {
            if n == 0 {
                return Err(invalid("budget_entries", n));
            }
            b = b.with_max_trace_entries(n);
        }
        Ok(Some(b))
    }

    /// Whether the job asks for a concurrent (scheduled multi-thread) run.
    #[must_use]
    pub fn concurrent(&self) -> bool {
        self.threads.is_some_and(|t| t > 1) || self.schedule.is_some()
    }

    /// Assembles the detector configuration from the spec's config axes
    /// and checks it with [`XfConfig::validate`].
    pub fn config(&self) -> Result<XfConfig, ConfigError> {
        let (pruning, domain) = (self.pruning()?, self.domain()?);
        let (post_budget, schedule) = (self.budget()?, self.schedule()?);
        let d = XfConfig::default();
        let config = XfConfig {
            skip_empty_failure_points: self.skip_empty.unwrap_or(d.skip_empty_failure_points),
            first_read_only: self.all_reads.map_or(d.first_read_only, |all| !all),
            inject_at_completion: self.completion_fp.unwrap_or(d.inject_at_completion),
            max_failure_points: self.max_failure_points,
            fire_on_every_write: self.fire_on_every_write.unwrap_or(d.fire_on_every_write),
            rng_seed: self.seed.unwrap_or(d.rng_seed),
            dedup_images: self.dedup.unwrap_or(d.dedup_images),
            post_budget,
            pruning,
            threads: self.threads.unwrap_or(d.threads),
            schedule: schedule.unwrap_or(d.schedule),
            domain,
            ..d
        };
        config.validate()?;
        Ok(config)
    }

    /// Semantic validation beyond parse-time structure: every stringly
    /// field parses, the config builds, and mutually exclusive fields are
    /// not combined. A spec with no source is still valid — the CLI and
    /// server enforce source presence via [`JobSpec::require_source`] at
    /// the point where one is actually needed.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.mode()?;
        self.config()?;
        let stores = [&self.journal, &self.resume, &self.class_cache];
        if stores.iter().filter(|s| s.is_some()).count() > 1 {
            return Err(ConfigError::Conflict(
                "journal, resume and class_cache are mutually exclusive: each opens the one post-trace store",
            ));
        }
        let sources = [&self.workload, &self.trace, &self.program]
            .iter()
            .filter(|s| s.is_some())
            .count();
        if sources > 1 {
            return Err(ConfigError::Conflict(
                "a job takes one source: workload, trace or program",
            ));
        }
        if self.init.is_some_and(|n| n > 0) && self.concurrent() {
            return Err(ConfigError::Conflict(
                "init is not supported with threads/schedule",
            ));
        }
        Ok(())
    }

    /// Rejects a spec that names no program under test. Split from
    /// [`JobSpec::validate`] because `xfd analyze` supplies the trace
    /// positionally while the server requires it inside the spec.
    pub fn require_source(&self) -> Result<(), ConfigError> {
        if self.workload.is_none() && self.trace.is_none() && self.program.is_none() {
            return Err(ConfigError::MissingSource);
        }
        Ok(())
    }

    /// A stable identity string for the program under test, used as the
    /// default post-trace store digest when the caller supplies none: two
    /// specs with the same digest run the same pre-failure program (the
    /// config axes are covered separately by the run fingerprint).
    #[must_use]
    pub fn digest(&self) -> String {
        let mut bugs = self.bugs.clone();
        bugs.sort();
        format!(
            "workload={};trace={};program={};ops={};init={};bugs={}",
            self.workload.as_deref().unwrap_or(""),
            self.trace.as_deref().unwrap_or(""),
            self.program.as_deref().unwrap_or(""),
            self.ops.map_or_else(|| "-".into(), |n| n.to_string()),
            self.init.unwrap_or(0),
            bugs.join("+"),
        )
    }

    /// Applies the spec to a [`SessionBuilder`] — config axes, workers,
    /// stream capacity, the post-trace store (journal, resume or class
    /// cache, under the spec's digest), metrics and repro recording. The
    /// builder is returned so callers can keep layering (e.g. a progress
    /// callback) before `build()`.
    pub fn apply(&self, mut builder: SessionBuilder) -> Result<SessionBuilder, ConfigError> {
        self.validate()?;
        builder = builder.config(self.config()?);
        if let Some(w) = self.workers {
            builder = builder.workers(usize::try_from(w).unwrap_or(usize::MAX));
        }
        if let Some(c) = self.capacity {
            builder = builder.stream_capacity(usize::try_from(c).unwrap_or(usize::MAX));
        }
        if let Some(p) = &self.journal {
            builder = builder.journal(p);
        }
        if let Some(p) = &self.resume {
            builder = builder.resume(p);
        }
        if let Some(p) = &self.metrics_out {
            builder = builder.metrics_out(p);
        }
        builder = builder.record_repro(self.repro_dir.is_some());
        if let Some(p) = &self.class_cache {
            builder = builder.class_cache(p);
        }
        let digest = self.cache_digest.clone().unwrap_or_else(|| self.digest());
        builder = builder.cache_digest(digest);
        Ok(builder)
    }
}

/// Builds a runnable [`Session`] straight from a spec.
impl TryFrom<JobSpec> for Session {
    type Error = crate::XfError;

    fn try_from(spec: JobSpec) -> Result<Session, crate::XfError> {
        Ok(spec.apply(Session::builder())?.build()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_documents_parse_with_defaults() {
        let spec = JobSpec::from_json(r#"{"workload": "btree"}"#).unwrap();
        assert_eq!(spec.workload.as_deref(), Some("btree"));
        assert_eq!(spec.mode().unwrap(), Mode::Batch);
        assert_eq!(spec.pruning().unwrap(), Pruning::Off);
        assert!(spec.bugs.is_empty());
        assert!(spec.budget().unwrap().is_none());
        spec.validate().unwrap();
        spec.require_source().unwrap();
    }

    #[test]
    fn full_documents_round_trip() {
        let spec = JobSpec {
            workload: Some("hashmap_tx".into()),
            ops: Some(64),
            init: Some(8),
            bugs: vec!["HashmapTxMissingFlush".into()],
            mode: Some("parallel".into()),
            workers: Some(4),
            threads: None,
            schedule: None,
            pruning: Some("equivalence".into()),
            budget_ms: Some(5_000),
            budget_entries: Some(100_000),
            all_reads: Some(true),
            class_cache: Some("cache.xfc".into()),
            cache_digest: Some("v1".into()),
            ..JobSpec::default()
        };
        let json = spec.to_json();
        let again = JobSpec::from_json(&json).unwrap();
        assert_eq!(spec, again);
        assert_eq!(again.mode().unwrap(), Mode::Parallel);
        assert_eq!(again.pruning().unwrap(), Pruning::Equivalence);
        let cfg = again.config().unwrap();
        assert!(!cfg.first_read_only);
        assert!(cfg.post_budget.is_some());
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let err = JobSpec::from_json(r#"{"worklod": "btree"}"#).unwrap_err();
        assert!(matches!(err, ConfigError::Invalid { .. }));
        assert!(err.to_string().contains("worklod"), "{err}");
    }

    #[test]
    fn malformed_values_name_the_field() {
        let err = JobSpec::from_json(r#"{"ops": "many"}"#).unwrap_err();
        assert!(err.to_string().contains("ops"), "{err}");
        let err = JobSpec::from_json(r#"{"mode": 3}"#).unwrap_err();
        assert!(err.to_string().contains("mode"), "{err}");
    }

    #[test]
    fn domain_axis_parses_and_rejects_like_the_builder() {
        let spec = JobSpec {
            workload: Some("btree".into()),
            domain: Some("cxl:16".into()),
            ..JobSpec::default()
        };
        assert_eq!(
            spec.domain().unwrap(),
            pmem::PersistDomain::CxlGpf { reorder_window: 16 }
        );
        spec.validate().unwrap();
        assert_eq!(
            spec.config().unwrap().domain,
            pmem::PersistDomain::CxlGpf { reorder_window: 16 }
        );
        let again = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(spec, again);
        // Absent means ADR, the pre-domain behavior.
        assert_eq!(
            JobSpec::default().domain().unwrap(),
            pmem::PersistDomain::Adr
        );
        // A malformed spelling and an out-of-range window fail validation
        // with the same typed error (and thus the same exit code) as the
        // CLI flag.
        for bad in ["nvdimm", "cxl:0", "cxl:4097"] {
            let spec = JobSpec {
                domain: Some(bad.into()),
                ..JobSpec::default()
            };
            let err = spec.validate().unwrap_err();
            assert!(
                matches!(err, ConfigError::Invalid { what: "domain", .. }),
                "{bad}: {err}"
            );
            assert!(err.to_string().contains("cxl:WINDOW"), "{err}");
        }
    }

    #[test]
    fn stringly_axes_parse_into_engine_types() {
        assert_eq!(parse_mode("STREAM").unwrap(), Mode::Stream);
        assert_eq!(parse_pruning("equivalence").unwrap(), Pruning::Equivalence);
        assert_eq!(
            parse_schedule("rr").unwrap(),
            xfsched::ScheduleSpec::RoundRobin
        );
        assert_eq!(
            parse_schedule("exhaustive:3").unwrap(),
            xfsched::ScheduleSpec::Exhaustive(3)
        );
        assert!(matches!(
            parse_mode("turbo").unwrap_err(),
            ConfigError::Invalid { what: "mode", .. }
        ));
        assert!(matches!(
            parse_pruning("sampled:0.5").unwrap_err(),
            ConfigError::Invalid {
                what: "pruning",
                ..
            }
        ));
        assert!(matches!(
            parse_schedule("chaos").unwrap_err(),
            ConfigError::Invalid {
                what: "schedule",
                ..
            }
        ));
    }

    #[test]
    fn semantic_conflicts_are_rejected() {
        let both = JobSpec {
            journal: Some("a.xfj".into()),
            resume: Some("b.xfj".into()),
            ..JobSpec::default()
        };
        assert!(matches!(
            both.validate().unwrap_err(),
            ConfigError::Conflict(_)
        ));
        let two_sources = JobSpec {
            workload: Some("btree".into()),
            trace: Some("t.xft".into()),
            ..JobSpec::default()
        };
        assert!(matches!(
            two_sources.validate().unwrap_err(),
            ConfigError::Conflict(_)
        ));
        let none = JobSpec::default();
        none.validate().unwrap();
        assert!(matches!(
            none.require_source().unwrap_err(),
            ConfigError::MissingSource
        ));
        let zero_budget = JobSpec {
            budget_ms: Some(0),
            ..JobSpec::default()
        };
        assert!(zero_budget.budget().is_err());
    }

    #[test]
    fn digest_tracks_the_program_not_the_config() {
        let a = JobSpec {
            workload: Some("btree".into()),
            ops: Some(32),
            mode: Some("batch".into()),
            ..JobSpec::default()
        };
        let b = JobSpec {
            mode: Some("parallel".into()),
            workers: Some(8),
            ..a.clone()
        };
        assert_eq!(a.digest(), b.digest());
        let c = JobSpec {
            ops: Some(33),
            ..a.clone()
        };
        assert_ne!(a.digest(), c.digest());
        // Bug order does not matter.
        let d1 = JobSpec {
            bugs: vec!["X".into(), "Y".into()],
            ..a.clone()
        };
        let d2 = JobSpec {
            bugs: vec!["Y".into(), "X".into()],
            ..a
        };
        assert_eq!(d1.digest(), d2.digest());
    }

    #[test]
    fn try_from_builds_a_session_with_the_cache_armed() {
        let dir = std::env::temp_dir().join(format!("jobspec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cache = dir.join("c.xfc");
        let spec = JobSpec {
            workload: Some("btree".into()),
            pruning: Some("equivalence".into()),
            class_cache: Some(cache.display().to_string()),
            ..JobSpec::default()
        };
        let session = Session::try_from(spec).unwrap();
        assert_eq!(session.config().pruning, Pruning::Equivalence);
        // A cache serves every pruning policy; it cannot share the spec
        // with a journal, which opens the same store.
        let unpruned = JobSpec {
            workload: Some("btree".into()),
            class_cache: Some(cache.display().to_string()),
            ..JobSpec::default()
        };
        assert!(Session::try_from(unpruned.clone()).is_ok());
        let both = JobSpec {
            journal: Some(cache.display().to_string()),
            ..unpruned
        };
        assert!(matches!(
            Session::try_from(both).unwrap_err(),
            crate::XfError::Config(ConfigError::Conflict(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
