//! The end-to-end driver: one closed-loop client pushing the op stream
//! through `ShardRouter::call` / `ShardRouter::commit`.
//!
//! This module pins exactly the public items the end-to-end numbers
//! depend on: `sj_shard::{ShardRouter, ShardConfig}` and the request /
//! response types of `sj_service`. Only the call itself is inside a
//! timed span; building the request and digesting the reply are not.

use std::time::Instant;

use sj_geom::ThetaOp;
use sj_service::{MutationOutcome, Reply, Request, Side};
use sj_shard::ShardRouter;

use crate::stats::Digest;
use crate::trace::Tracer;
use crate::workload::{Op, Workload, STRATEGIES};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A join with `STRATEGIES[i]`.
    Join(usize),
    Select,
    Commit,
}

/// What one operation yielded, as far as the harness can see it.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    pub kind: OpKind,
    pub wall_ns: u64,
    /// The op was refused, returned a typed error, or (for a commit)
    /// had a mutation rejected.
    pub refused: bool,
    /// Digest of the whole reply (or of the commit outcomes).
    pub digest: u64,
    /// Joins: digest of the pair set alone, comparable across strategies.
    pub pairs_digest: u64,
    pub queue_us: u64,
    pub exec_us: u64,
    pub duplicates: u64,
    /// Shards queried (reads) or committed to (writes).
    pub shards: usize,
    pub cached: bool,
}

/// The request an op sends. Selects always probe `R` with `Overlaps`:
/// one side, one θ, one probe distribution per metric.
pub fn request_of(w: &Workload, op: &Op) -> Option<Request> {
    match op {
        Op::Join(strategy) => Some(Request::join(*strategy, w.theta)),
        Op::Select(probe) => Some(Request::select(Side::R, probe.clone(), ThetaOp::Overlaps)),
        Op::Commit(_) => None,
    }
}

pub fn kind_of(op: &Op) -> OpKind {
    match op {
        Op::Join(s) => OpKind::Join(
            STRATEGIES
                .iter()
                .position(|x| x == s)
                .expect("schedule only joins with STRATEGIES"),
        ),
        Op::Select(_) => OpKind::Select,
        Op::Commit(_) => OpKind::Commit,
    }
}

/// `(whole reply, pair set alone)`. The whole-reply digest covers the
/// resolved strategy too, so it pins byte identity with the reference.
pub fn reply_digests(reply: &Reply) -> (u64, u64) {
    match reply {
        Reply::Select { matches } => {
            let mut d = Digest::new();
            d.bytes(b"select");
            for id in matches.iter() {
                d.u64(*id);
            }
            (d.finish(), 0)
        }
        Reply::Join { pairs, resolved } => {
            let mut p = Digest::new();
            for (r, s) in pairs.iter() {
                p.u64(*r);
                p.u64(*s);
            }
            let pairs_digest = p.finish();
            let mut d = Digest::new();
            d.bytes(b"join");
            d.bytes(resolved.name().as_bytes());
            d.u64(pairs_digest);
            (d.finish(), pairs_digest)
        }
    }
}

pub fn outcomes_digest(outcomes: &[MutationOutcome]) -> u64 {
    let mut d = Digest::new();
    d.bytes(b"commit");
    for o in outcomes {
        d.u64(match o {
            MutationOutcome::Inserted => 1,
            MutationOutcome::Deleted => 2,
            MutationOutcome::Upserted { replaced: true } => 3,
            MutationOutcome::Upserted { replaced: false } => 4,
            MutationOutcome::DuplicateId => 5,
            MutationOutcome::MissingId => 6,
            MutationOutcome::TooLarge => 7,
        });
    }
    d.finish()
}

/// Runs one op against the router. With a tracer, records the op's
/// spans: a root `op.*`, its child `shard.call`, and grandchildren
/// synthesized from the slowest shard's `queue_us` / `exec_us`.
pub fn run_op(
    router: &ShardRouter,
    w: &Workload,
    op: &Op,
    tracer: Option<(&mut Tracer, u64)>,
) -> OpSample {
    let kind = kind_of(op);
    // Clock reads cost nothing worth sparing, but the untraced run must
    // not make them: its spans do not exist.
    let now = |tracer: &Option<(&mut Tracer, u64)>| tracer.as_ref().map_or(0, |(t, _)| t.now());
    let root_start = now(&tracer);
    let mut sample = OpSample {
        kind,
        wall_ns: 0,
        refused: false,
        digest: 0,
        pairs_digest: 0,
        queue_us: 0,
        exec_us: 0,
        duplicates: 0,
        shards: 0,
        cached: false,
    };
    // The spans end when the reply is in hand: digesting it afterwards
    // is verification, not part of the op.
    let (call_start, call_end);
    match op {
        Op::Commit(batch) => {
            call_start = now(&tracer);
            let started = Instant::now();
            let receipt = router.commit(batch);
            sample.wall_ns = started.elapsed().as_nanos() as u64;
            call_end = now(&tracer);
            match receipt {
                Ok(receipt) => {
                    sample.refused = receipt.outcomes.len() != batch.len()
                        || !receipt.outcomes.iter().all(MutationOutcome::applied);
                    sample.digest = outcomes_digest(&receipt.outcomes);
                    sample.shards = receipt.shard_commits;
                }
                Err(_) => sample.refused = true,
            }
        }
        _ => {
            let req = request_of(w, op).expect("reads have a request");
            call_start = now(&tracer);
            let started = Instant::now();
            let result = router.call(req);
            sample.wall_ns = started.elapsed().as_nanos() as u64;
            call_end = now(&tracer);
            match result {
                Ok(resp) => {
                    (sample.digest, sample.pairs_digest) = reply_digests(&resp.reply);
                    sample.queue_us = resp.queue_us;
                    sample.exec_us = resp.exec_us;
                    sample.duplicates = resp.duplicates;
                    sample.shards = resp.shards_queried;
                    sample.cached = resp.cached;
                }
                Err(_) => sample.refused = true,
            }
        }
    }
    if let Some((t, request)) = tracer {
        let name = match kind {
            OpKind::Join(i) => format!("op.join.{}", STRATEGIES[i].name()),
            OpKind::Select => "op.select".to_string(),
            OpKind::Commit => "op.commit".to_string(),
        };
        let root = t.record(None, request, &name, root_start, call_end);
        let call = t.record(Some(root), request, "shard.call", call_start, call_end);
        if kind != OpKind::Commit {
            let queue_end = (call_start + sample.queue_us * 1_000).min(call_end);
            let exec_end = (queue_end + sample.exec_us * 1_000).min(call_end);
            t.record(Some(call), request, "service.queue", call_start, queue_end);
            t.record(Some(call), request, "service.exec", queue_end, exec_end);
        }
    }
    sample
}

/// Failed ops in one cycle's samples: refused ops, replies whose digest
/// differs from the check pass (`expected`, for the cycles it covered),
/// and joins whose pair set differs from the first strategy's.
pub fn failed_in_cycle(samples: &[OpSample], expected: Option<&[u64]>) -> u64 {
    let first_pairs = samples
        .iter()
        .find(|s| matches!(s.kind, OpKind::Join(_)) && !s.refused)
        .map(|s| s.pairs_digest);
    let mut failed = 0;
    for (i, s) in samples.iter().enumerate() {
        let off_reference = expected.is_some_and(|e| e.get(i) != Some(&s.digest));
        let off_siblings = matches!(s.kind, OpKind::Join(_)) && Some(s.pairs_digest) != first_pairs;
        if s.refused || off_reference || off_siblings {
            failed += 1;
        }
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_joins::Strategy;
    use std::sync::Arc;

    fn sample(kind: OpKind, digest: u64, pairs_digest: u64) -> OpSample {
        OpSample {
            kind,
            wall_ns: 1,
            refused: false,
            digest,
            pairs_digest,
            queue_us: 0,
            exec_us: 0,
            duplicates: 0,
            shards: 1,
            cached: false,
        }
    }

    #[test]
    fn reply_digest_pins_bytes_and_pair_digest_ignores_strategy() {
        let pairs = Arc::new(vec![(1u64, 9u64), (2, 8)]);
        let a = Reply::Join {
            pairs: Arc::clone(&pairs),
            resolved: Strategy::Sweep,
        };
        let b = Reply::Join {
            pairs,
            resolved: Strategy::Tree,
        };
        let (full_a, pairs_a) = reply_digests(&a);
        let (full_b, pairs_b) = reply_digests(&b);
        assert_ne!(full_a, full_b);
        assert_eq!(pairs_a, pairs_b);
        assert_eq!(reply_digests(&a), reply_digests(&a.clone()));
        let c = Reply::Join {
            pairs: Arc::new(vec![(1, 9), (2, 7)]),
            resolved: Strategy::Sweep,
        };
        assert_ne!(reply_digests(&c).1, pairs_a);
        let s1 = Reply::Select {
            matches: Arc::new(vec![1, 2, 3]),
        };
        let s2 = Reply::Select {
            matches: Arc::new(vec![1, 2, 4]),
        };
        assert_ne!(reply_digests(&s1).0, reply_digests(&s2).0);
    }

    #[test]
    fn outcome_digest_sees_every_rejection() {
        let ok = [MutationOutcome::Upserted { replaced: true }; 3];
        let mut bad = ok;
        bad[1] = MutationOutcome::Upserted { replaced: false };
        assert_ne!(outcomes_digest(&ok), outcomes_digest(&bad));
    }

    #[test]
    fn failures_are_counted_per_op() {
        let good = [
            sample(OpKind::Join(0), 10, 5),
            sample(OpKind::Join(1), 11, 5),
            sample(OpKind::Join(2), 12, 5),
            sample(OpKind::Select, 20, 0),
            sample(OpKind::Commit, 30, 0),
        ];
        assert_eq!(failed_in_cycle(&good, None), 0);
        assert_eq!(failed_in_cycle(&good, Some(&[10, 11, 12, 20, 30])), 0);
        // One reply differs from the check pass.
        assert_eq!(failed_in_cycle(&good, Some(&[10, 11, 12, 21, 30])), 1);
        // A reference shorter than the cycle fails the uncovered ops.
        assert_eq!(failed_in_cycle(&good, Some(&[10, 11, 12, 20])), 1);
        // A strategy disagrees with its siblings.
        let mut split = good;
        split[2].pairs_digest = 6;
        assert_eq!(failed_in_cycle(&split, None), 1);
        // A refused op fails whatever its digest says.
        let mut refused = good;
        refused[4].refused = true;
        assert_eq!(failed_in_cycle(&refused, None), 1);
    }
}
