//! A persistent Treiber stack with a multi-threaded pre-failure stage.
//!
//! The first of the two lock-free concurrent workloads: a pusher thread
//! prepares nodes and publishes them through the `top` pointer while an
//! auditor thread keeps its own statistics cell. The correct push protocol
//! is entirely thread-local — prepare the node, persist it behind the
//! thread's *own* fence, then publish — so it stays crash-consistent under
//! every interleaving the scheduler can produce.
//!
//! The injectable bugs break exactly that locality:
//!
//! - [`BugId::TsPublishOnHelper`] moves the `top` publication to the
//!   helper thread. Run single-threaded the roles execute back to back and
//!   the helper publishes only after the pusher's fence retired the node —
//!   every failure point is clean. Under a two-thread schedule the publish
//!   can overlap the prepare, and the node's persistence comes to depend on
//!   *which thread's* fence the crash beat: a cross-thread cross-failure
//!   race, invisible to any single-threaded detector.
//! - [`BugId::TsNoFlushNode`] omits the node write-back entirely — an
//!   ordinary cross-failure race, detectable single-threaded; it anchors
//!   the workload in the Table 5-style matrix.
//!
//! `top` is a registered commit variable governing only the stack header,
//! deliberately *not* the node arena: node persistence must be checked
//! directly, not excused by commit-window consistency.

use pmem::PmCtx;
use xfdetector::{ConcurrentWorkload, DynError, OpSequence, ThreadProgram};

use crate::bugs::{BugId, BugSet};

/// Header cell (a magic word), written once in `setup`; the explicit
/// commit range of `top` so the commit variable does not default to
/// governing the whole pool.
const HEADER: u64 = 0;
/// The `top` pointer — the commit variable publishing nodes.
const TOP: u64 = 64;
/// The auditor thread's statistics cell; never read post-failure.
const STATS: u64 = 128;
/// Start of the node arena; node `i` lives at `ARENA + i * NODE_STRIDE`
/// with its value at `+0` and its `next` pointer at `+8`.
const ARENA: u64 = 256;
const NODE_STRIDE: u64 = 64;

/// The Treiber-stack concurrent workload; `ops` pushes.
#[derive(Debug, Clone)]
pub struct TreiberStack {
    ops: u64,
    bugs: BugSet,
}

impl TreiberStack {
    /// A stack performing `ops` pushes in the pre-failure stage.
    #[must_use]
    pub fn new(ops: u64) -> Self {
        TreiberStack {
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

impl ConcurrentWorkload for TreiberStack {
    fn name(&self) -> &str {
        "treiber_stack"
    }

    fn pool_size(&self) -> u64 {
        1024 * 1024
    }

    fn setup(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
        let base = ctx.pool().base();
        ctx.write_u64(base + HEADER, 0x5453_4b31)?; // "TSK1"
        ctx.persist_barrier(base + HEADER, 8)?;
        ctx.write_u64(base + TOP, 0)?;
        ctx.persist_barrier(base + TOP, 8)?;
        ctx.write_u64(base + STATS, 0)?;
        ctx.persist_barrier(base + STATS, 8)?;
        Ok(())
    }

    fn pre_failure_init(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
        let base = ctx.pool().base();
        ctx.register_commit_var(base + TOP, 8);
        ctx.register_commit_range(base + TOP, base + HEADER, 8);
        Ok(())
    }

    fn roles(&self, base: u64) -> Vec<Box<dyn ThreadProgram>> {
        let publish_on_helper = self.bugs.has(BugId::TsPublishOnHelper);
        let skip_node_flush = self.bugs.has(BugId::TsNoFlushNode);
        let top = base + TOP;
        let stats = base + STATS;

        let mut pusher: Vec<Step> = Vec::new();
        let mut second: Vec<Step> = Vec::new();
        for i in 0..self.ops {
            let node = base + ARENA + i * NODE_STRIDE;
            let prev = if i == 0 {
                0
            } else {
                base + ARENA + (i - 1) * NODE_STRIDE
            };

            // Prepare the node and persist it behind the pusher's fence.
            pusher.push(Box::new(move |c| {
                c.write_u64(node, 0x1000 + i)?;
                Ok(())
            }));
            pusher.push(Box::new(move |c| {
                c.write_u64(node + 8, prev)?;
                Ok(())
            }));
            if !skip_node_flush {
                pusher.push(Box::new(move |c| {
                    c.clwb(node)?;
                    Ok(())
                }));
            }
            pusher.push(Box::new(move |c| {
                c.sfence();
                Ok(())
            }));

            // Publish: swing `top` to the new node — on the pusher in the
            // correct protocol, on the helper under TsPublishOnHelper.
            let publish: [Step; 3] = [
                Box::new(move |c| {
                    c.write_u64(top, node)?;
                    Ok(())
                }),
                Box::new(move |c| {
                    c.clwb(top)?;
                    Ok(())
                }),
                Box::new(move |c| {
                    c.sfence();
                    Ok(())
                }),
            ];
            if publish_on_helper {
                second.extend(publish);
            } else {
                pusher.extend(publish);
                // The auditor keeps a thread-local push count with its own
                // full persist discipline.
                second.push(Box::new(move |c| {
                    c.write_u64(stats, i + 1)?;
                    Ok(())
                }));
                second.push(Box::new(move |c| {
                    c.clwb(stats)?;
                    Ok(())
                }));
                second.push(Box::new(move |c| {
                    c.sfence();
                    Ok(())
                }));
            }
        }
        vec![
            Box::new(OpSequence::new(pusher)),
            Box::new(OpSequence::new(second)),
        ]
    }

    fn post_failure(&self, ctx: &mut PmCtx) -> Result<(), DynError> {
        // Recovery: walk the published top node, as a pop would.
        let base = ctx.pool().base();
        let top = ctx.read_u64(base + TOP)?;
        if top == 0 {
            return Ok(()); // nothing published before the failure
        }
        let _val = ctx.read_u64(top)?;
        let _next = ctx.read_u64(top + 8)?;
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
            .run_concurrent(TreiberStack::new(2).with_bugs(bugs), Mode::Batch)
            .unwrap()
    }

    #[test]
    fn correct_stack_is_clean_single_and_multi_threaded() {
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
    fn publish_on_helper_is_invisible_single_threaded() {
        let outcome = run(BugSet::single(BugId::TsPublishOnHelper), 1);
        assert!(
            !outcome.report.has_correctness_bugs(),
            "sequential roles mask the foreign publish:\n{}",
            outcome.report
        );
    }

    #[test]
    fn publish_on_helper_races_with_two_threads() {
        let outcome = run(BugSet::single(BugId::TsPublishOnHelper), 2);
        assert!(
            outcome
                .report
                .findings()
                .iter()
                .any(|f| f.kind == BugKind::CrossThreadRace),
            "{}",
            outcome.report
        );
        assert!(outcome.stats.cross_thread_findings >= 1);
    }

    #[test]
    fn missing_node_flush_is_detected_single_threaded() {
        let outcome = run(BugSet::single(BugId::TsNoFlushNode), 1);
        assert!(outcome.report.race_count() >= 1, "{}", outcome.report);
    }
}
