//! The correctness check pass. It runs in its own process, so the
//! whole-data mirror it builds never counts towards the measured
//! process's `rss_peak_mb`.
//!
//! It replays the first cycles of the op stream against the router and
//! against a whole-data `SpatialService` fed the same commits, requires
//! every router reply to be byte-identical to the mirror's sequential
//! `execute_reference` (SELECT, all three join strategies, and reads
//! after commits), requires identical commit outcomes, and prints one
//! digest per op. The measured run recomputes those digests.

use sj_service::{Reply, SpatialService};
use sj_shard::ShardRouter;

use crate::driver::{outcomes_digest, reply_digests, request_of};
use crate::workload::{world_rect, Dataset, Op, Schedule, Workload};

/// Digests of the first cycles, `[cycle][op]`.
pub type CycleDigests = Vec<Vec<u64>>;

/// Replays `cycles` cycles; `Err` names the first divergence.
pub fn run(w: &Workload, seed: u64, cycles: usize) -> Result<CycleDigests, String> {
    let data = Dataset::generate(w, seed);
    let router = ShardRouter::start(w.shard_config(), &data.r, &data.s);
    let mirror = SpatialService::start(w.service_config(), &data.r, &data.s, world_rect());
    let mut schedule = Schedule::new(w, &data, seed);
    let mut digests = Vec::with_capacity(cycles);
    for cycle in 0..cycles {
        let mut row = Vec::new();
        for (i, op) in schedule.next_cycle().iter().enumerate() {
            let at = format!("{} cycle {cycle} op {i}", w.name);
            match op {
                Op::Commit(batch) => {
                    let routed = router
                        .commit(batch)
                        .map_err(|e| format!("{at}: router commit refused: {e:?}"))?;
                    let single = mirror
                        .commit(batch)
                        .map_err(|e| format!("{at}: mirror commit refused: {e:?}"))?;
                    if routed.outcomes != single.outcomes {
                        return Err(format!("{at}: commit outcomes differ from the mirror"));
                    }
                    row.push(outcomes_digest(&routed.outcomes));
                }
                _ => {
                    let req = request_of(w, op).expect("reads have a request");
                    let want: Reply = mirror.execute_reference(&req);
                    let got = router
                        .call(req)
                        .map_err(|e| format!("{at}: router refused: {e:?}"))?;
                    if got.reply != want {
                        return Err(format!(
                            "{at}: router reply ({} results) differs from the single-node reference ({} results)",
                            got.reply.len(),
                            want.len()
                        ));
                    }
                    row.push(reply_digests(&got.reply).0);
                }
            }
        }
        digests.push(row);
    }
    Ok(digests)
}

/// The check process's stdout: one `digest <cycle> <op> <hex>` line per op.
pub fn render(digests: &CycleDigests) -> String {
    let mut out = String::new();
    for (c, row) in digests.iter().enumerate() {
        for (i, d) in row.iter().enumerate() {
            out.push_str(&format!("digest {c} {i} {d:016x}\n"));
        }
    }
    out
}

/// Inverse of [`render`]; any malformed or out-of-order line is an error.
pub fn parse(text: &str) -> Result<CycleDigests, String> {
    let mut digests: CycleDigests = Vec::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        let (Some(&"digest"), Some(c), Some(i), Some(d), None) =
            (f.first(), f.get(1), f.get(2), f.get(3), f.get(4))
        else {
            return Err(format!("bad check line {line:?}"));
        };
        let c: usize = c.parse().map_err(|_| format!("bad cycle in {line:?}"))?;
        let i: usize = i.parse().map_err(|_| format!("bad op index in {line:?}"))?;
        let d = u64::from_str_radix(d, 16).map_err(|_| format!("bad digest in {line:?}"))?;
        if c == digests.len() {
            digests.push(Vec::new());
        }
        if c + 1 != digests.len() || i != digests[c].len() {
            return Err(format!("check line out of order: {line:?}"));
        }
        digests[c].push(d);
    }
    Ok(digests)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_round_trip_through_the_process_boundary() {
        let d: CycleDigests = vec![vec![1, u64::MAX, 0xdead_beef], vec![7]];
        assert_eq!(parse(&render(&d)).expect("parses"), d);
        assert!(parse("digest 1 0 ff\n").is_err());
        assert!(parse("digest 0 1 ff\n").is_err());
        assert!(parse("digest 0 0 zz\n").is_err());
        assert!(parse("oops\n").is_err());
    }
}
