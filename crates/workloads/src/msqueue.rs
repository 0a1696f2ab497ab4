//! A persistent Michael–Scott queue with a multi-threaded pre-failure
//! stage.
//!
//! The second lock-free concurrent workload. An enqueuer thread prepares
//! nodes, links them behind the predecessor's `next` pointer and swings
//! `tail`; a dequeuer thread keeps its own scratch cell. As in
//! [`crate::treiber`], the correct protocol is thread-local and stays
//! crash-consistent under every schedule.
//!
//! The injectable bugs:
//!
//! - [`BugId::MsTailPublishOnDequeuer`] moves the `tail` publication to
//!   the dequeuer thread, which swings it once to the final node.
//!   Sequentially that single commit trails the fully persisted links —
//!   clean. Under a two-thread schedule the dequeuer can commit `tail`
//!   while the enqueuer is still preparing nodes: the published value is
//!   then outside its commit window *and* the commit variable was last
//!   written by a different thread than the data — the cross-thread
//!   cross-failure semantic bug.
//! - [`BugId::MsNoFlushLink`] omits the predecessor-link write-back — an
//!   ordinary single-threaded cross-failure race on the first link.
//!
//! `tail` is a commit variable whose explicit ranges cover the node
//! *values* (so the semantic check governs them); the link cells stay
//! ungoverned and are persistence-checked directly.

use pmem::PmCtx;
use xfdetector::{ConcurrentWorkload, DynError, OpSequence, ThreadProgram};

use crate::bugs::{BugId, BugSet};

/// Header cell (a magic word), written once in `setup`.
const HEADER: u64 = 0;
/// The `tail` pointer — the commit variable publishing enqueued nodes.
const TAIL: u64 = 64;
/// The dequeuer thread's scratch cell; never read post-failure.
const SCRATCH: u64 = 128;
/// The sentinel node: value at `+0`, `next` (the first link) at `+8`.
const SENTINEL: u64 = 192;
/// Start of the node arena; node `i` lives at `ARENA + i * NODE_STRIDE`
/// with its value at `+0` and its `next` pointer at `+8`.
const ARENA: u64 = 256;
const NODE_STRIDE: u64 = 64;

/// The Michael–Scott-queue concurrent workload; `ops` enqueues.
#[derive(Debug, Clone)]
pub struct MsQueue {
    ops: u64,
    bugs: BugSet,
}

impl MsQueue {
    /// A queue performing `ops` enqueues in the pre-failure stage.
    #[must_use]
    pub fn new(ops: u64) -> Self {
        MsQueue {
            ops: ops.max(1),
            bugs: BugSet::none(),
        }
    }

    /// Enables the given injected bugs.
    #[must_use]
    pub fn with_bugs(mut self, bugs: BugSet) -> Self {
        self.bugs = bugs;
        self
    }
}

type Step = Box<dyn FnMut(&mut PmCtx) -> Result<(), DynError>>;

impl ConcurrentWorkload for MsQueue {
    fn name(&self) -> &str {
        "ms_queue"
    }

    fn pool_size(&self) -> u64 {
        1024 * 1024
    }

    fn setup(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
        let base = ctx.pool().base();
        ctx.write_u64(base + HEADER, 0x4d53_5131)?; // "MSQ1"
        ctx.persist_barrier(base + HEADER, 8)?;
        ctx.write_u64(base + TAIL, 0)?;
        ctx.persist_barrier(base + TAIL, 8)?;
        ctx.write_u64(base + SCRATCH, 0)?;
        ctx.persist_barrier(base + SCRATCH, 8)?;
        ctx.write_u64(base + SENTINEL, 0)?;
        ctx.write_u64(base + SENTINEL + 8, 0)?;
        ctx.persist_barrier(base + SENTINEL, 16)?;
        Ok(())
    }

    fn pre_failure_init(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
        let base = ctx.pool().base();
        ctx.register_commit_var(base + TAIL, 8);
        // `tail` governs the node values; the link cells stay ungoverned.
        for i in 0..self.ops {
            ctx.register_commit_range(base + TAIL, base + ARENA + i * NODE_STRIDE, 8);
        }
        Ok(())
    }

    fn roles(&self, base: u64) -> Vec<Box<dyn ThreadProgram>> {
        let publish_on_dequeuer = self.bugs.has(BugId::MsTailPublishOnDequeuer);
        let skip_link_flush = self.bugs.has(BugId::MsNoFlushLink);
        let tail = base + TAIL;
        let scratch = base + SCRATCH;

        let mut enqueuer: Vec<Step> = Vec::new();
        let mut second: Vec<Step> = Vec::new();
        for i in 0..self.ops {
            let node = base + ARENA + i * NODE_STRIDE;
            let link = if i == 0 {
                base + SENTINEL + 8
            } else {
                base + ARENA + (i - 1) * NODE_STRIDE + 8
            };

            // Prepare the node and persist it behind the enqueuer's fence.
            enqueuer.push(Box::new(move |c| {
                c.write_u64(node, 0x2000 + i)?;
                Ok(())
            }));
            enqueuer.push(Box::new(move |c| {
                c.write_u64(node + 8, 0)?;
                Ok(())
            }));
            enqueuer.push(Box::new(move |c| {
                c.clwb(node)?;
                Ok(())
            }));
            enqueuer.push(Box::new(move |c| {
                c.sfence();
                Ok(())
            }));

            // Link it behind the predecessor and persist the link.
            enqueuer.push(Box::new(move |c| {
                c.write_u64(link, node)?;
                Ok(())
            }));
            if !skip_link_flush {
                enqueuer.push(Box::new(move |c| {
                    c.clwb(link)?;
                    Ok(())
                }));
            }
            enqueuer.push(Box::new(move |c| {
                c.sfence();
                Ok(())
            }));

            // Publish: swing `tail` — per node on the enqueuer in the
            // correct protocol; under MsTailPublishOnDequeuer the dequeuer
            // instead commits once, straight to the final node.
            let publish: [Step; 3] = [
                Box::new(move |c| {
                    c.write_u64(tail, node)?;
                    Ok(())
                }),
                Box::new(move |c| {
                    c.clwb(tail)?;
                    Ok(())
                }),
                Box::new(move |c| {
                    c.sfence();
                    Ok(())
                }),
            ];
            if publish_on_dequeuer {
                if i == self.ops - 1 {
                    second.extend(publish);
                }
            } else {
                enqueuer.extend(publish);
                // The dequeuer keeps a thread-local scan count with its
                // own full persist discipline.
                second.push(Box::new(move |c| {
                    c.write_u64(scratch, i + 1)?;
                    Ok(())
                }));
                second.push(Box::new(move |c| {
                    c.clwb(scratch)?;
                    Ok(())
                }));
                second.push(Box::new(move |c| {
                    c.sfence();
                    Ok(())
                }));
            }
        }
        vec![
            Box::new(OpSequence::new(enqueuer)),
            Box::new(OpSequence::new(second)),
        ]
    }

    fn post_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
        // Recovery: follow the published tail and the first link, as a
        // dequeue starting from the sentinel would.
        let base = ctx.pool().base();
        let tail = ctx.read_u64(base + TAIL)?;
        if tail == 0 {
            return Ok(()); // nothing published before the failure
        }
        let _val = ctx.read_u64(tail)?;
        let _first = ctx.read_u64(base + SENTINEL + 8)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xfdetector::{BugKind, Mode, Session, XfConfig};

    fn run(bugs: BugSet, threads: u32) -> xfdetector::RunOutcome {
        Session::builder()
            .config(XfConfig {
                threads,
                ..XfConfig::default()
            })
            .build()
            .unwrap()
            .run_concurrent(MsQueue::new(2).with_bugs(bugs), Mode::Batch)
            .unwrap()
    }

    #[test]
    fn correct_queue_is_clean_single_and_multi_threaded() {
        for threads in [1, 2, 4] {
            let outcome = run(BugSet::none(), threads);
            assert!(
                !outcome.report.has_correctness_bugs(),
                "threads={threads}:\n{}",
                outcome.report
            );
        }
    }

    #[test]
    fn tail_publish_on_dequeuer_is_invisible_single_threaded() {
        let outcome = run(BugSet::single(BugId::MsTailPublishOnDequeuer), 1);
        assert!(
            !outcome.report.has_correctness_bugs(),
            "sequential roles mask the foreign publish:\n{}",
            outcome.report
        );
    }

    #[test]
    fn tail_publish_on_dequeuer_is_a_cross_thread_bug_with_two_threads() {
        let outcome = run(BugSet::single(BugId::MsTailPublishOnDequeuer), 2);
        let kinds: Vec<_> = outcome.report.findings().iter().map(|f| f.kind).collect();
        assert!(
            kinds.contains(&BugKind::CrossThreadSemantic),
            "value committed by a foreign thread outside its window: {kinds:?}\n{}",
            outcome.report
        );
        assert!(outcome.stats.cross_thread_findings >= 1);
    }

    #[test]
    fn missing_link_flush_is_detected_single_threaded() {
        let outcome = run(BugSet::single(BugId::MsNoFlushLink), 1);
        assert!(outcome.report.race_count() >= 1, "{}", outcome.report);
    }
}
