//! Execution statistics in the cost model's units, plus the per-phase
//! breakdown ([`PhaseStats`]) recorded by instrumented executors.

use sj_obs::{Phase, PhaseTimer, TraceSink};
use sj_storage::IoStats;

/// Work performed by one executor run: the measured counterparts of the
/// model's `C_Θ`-priced comparisons and `C_IO`-priced page transfers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Physical page reads through the buffer pool.
    pub physical_reads: u64,
    /// Physical page writes.
    pub physical_writes: u64,
    /// Buffer-pool requests (hits + misses).
    pub logical_reads: u64,
    /// Exact θ-evaluations on geometries.
    pub theta_evals: u64,
    /// Conservative Θ-filter evaluations on MBRs.
    pub filter_evals: u64,
    /// Memory passes over the inner input (block-nested-loop style).
    pub passes: u64,
    /// Always 0: no executor runs a margin test, so none decodes on a
    /// margin miss. Kept, like `margin_hits` and `margin_misses`, only
    /// because the benchmark harness reads it; ROADMAP item 25(d)
    /// deletes all three.
    pub decoded_exact: u64,
    /// Always 0; see [`ExecStats::decoded_exact`].
    pub margin_hits: u64,
    /// Always 0; see [`ExecStats::decoded_exact`].
    pub margin_misses: u64,
}

impl ExecStats {
    /// Folds a buffer-pool I/O delta into the counters.
    pub fn add_io(&mut self, delta: IoStats) {
        self.physical_reads += delta.physical_reads;
        self.physical_writes += delta.physical_writes;
        self.logical_reads += delta.logical_reads;
    }

    /// Total comparison work (the model prices θ and Θ identically).
    pub fn comparisons(&self) -> u64 {
        self.theta_evals + self.filter_evals
    }

    /// Total cost in model units given `C_Θ` and `C_IO` weights.
    ///
    /// `passes` is deliberately **not** priced. The paper's §4.1 model
    /// charges exactly two resources — comparisons (`C_Θ`) and page
    /// transfers (`C_IO`). A block-nested-loop memory pass is not a
    /// third resource: its cost already materializes in these counters
    /// as the re-read of the inner relation (`physical_reads` grows by
    /// `pages(S)` per extra pass), so pricing `passes` separately would
    /// double-charge the rescan I/O. The counter exists purely as a
    /// diagnostic for *why* the I/O term grew (see the pinning test
    /// `extra_passes_are_free_in_model_units`).
    pub fn cost(&self, c_theta: f64, c_io: f64) -> f64 {
        self.comparisons() as f64 * c_theta
            + (self.physical_reads + self.physical_writes) as f64 * c_io
    }

    /// The counters as `(name, value)` pairs, the shape
    /// [`TraceSink::emit`] takes — used when emitting phase spans.
    pub fn counters(&self) -> [(&'static str, u64); 9] {
        [
            ("physical_reads", self.physical_reads),
            ("physical_writes", self.physical_writes),
            ("logical_reads", self.logical_reads),
            ("theta_evals", self.theta_evals),
            ("filter_evals", self.filter_evals),
            ("passes", self.passes),
            ("decoded_exact", self.decoded_exact),
            ("margin_hits", self.margin_hits),
            ("margin_misses", self.margin_misses),
        ]
    }

    /// True when every counter is zero (such deltas are dropped from
    /// [`PhaseStats`] so empty phases never appear in breakdowns).
    pub fn is_empty(&self) -> bool {
        *self == ExecStats::default()
    }

    /// Folds another counter set into this one (alias for `+=`, usable in
    /// iterator folds without importing the operator trait).
    pub fn merge(&mut self, other: &ExecStats) {
        *self += *other;
    }
}

/// Component-wise accumulation: how per-tile and per-phase counters
/// combine into run totals.
impl std::ops::AddAssign for ExecStats {
    fn add_assign(&mut self, rhs: ExecStats) {
        self.physical_reads += rhs.physical_reads;
        self.physical_writes += rhs.physical_writes;
        self.logical_reads += rhs.logical_reads;
        self.theta_evals += rhs.theta_evals;
        self.filter_evals += rhs.filter_evals;
        self.passes += rhs.passes;
        self.decoded_exact += rhs.decoded_exact;
        self.margin_hits += rhs.margin_hits;
        self.margin_misses += rhs.margin_misses;
    }
}

/// Per-phase breakdown of an executor run.
///
/// Instrumented executors attribute every counter they touch to exactly
/// one [`Phase`] via disjoint measurement windows, so the phase deltas
/// sum *exactly* to the run's [`ExecStats`] totals (enforced by
/// [`JoinRun::seal`], which recomputes the totals from the breakdown,
/// and asserted end-to-end by the bench smoke runs and the
/// `prop_phase_trace` suite).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseStats {
    entries: Vec<(Phase, ExecStats)>,
}

impl PhaseStats {
    /// Fold a counter delta into a phase. All-zero deltas are dropped,
    /// so phases an executor never exercised don't clutter traces.
    pub fn record(&mut self, phase: Phase, delta: ExecStats) {
        if delta.is_empty() {
            return;
        }
        if let Some(entry) = self.entries.iter_mut().find(|(p, _)| *p == phase) {
            entry.1 += delta;
        } else {
            self.entries.push((phase, delta));
        }
    }

    /// The accumulated counters for one phase (zero if never recorded).
    pub fn get(&self, phase: Phase) -> ExecStats {
        self.entries
            .iter()
            .find(|(p, _)| *p == phase)
            .map_or_else(ExecStats::default, |(_, s)| *s)
    }

    /// Recorded phases in first-recording order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, &ExecStats)> + '_ {
        self.entries.iter().map(|(p, s)| (*p, s))
    }

    /// Sum of all phase deltas. [`JoinRun::seal`] assigns this to the
    /// run's totals, making "phases sum to totals" true by construction.
    pub fn total(&self) -> ExecStats {
        let mut acc = ExecStats::default();
        for (_, s) in &self.entries {
            acc += *s;
        }
        acc
    }

    /// Fold another breakdown into this one, phase-wise.
    pub fn merge(&mut self, other: &PhaseStats) {
        for (phase, delta) in other.iter() {
            self.record(phase, *delta);
        }
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Result of a join executor: matching `(r_id, s_id)` pairs plus stats
/// and their per-phase breakdown.
#[derive(Debug, Clone, Default)]
pub struct JoinRun {
    pub pairs: Vec<(u64, u64)>,
    pub stats: ExecStats,
    pub phases: PhaseStats,
}

impl JoinRun {
    /// Finish an instrumented run: recompute `stats` from the phase
    /// breakdown (so the two agree exactly) and emit one
    /// `<executor>/<phase>` trace span per recorded phase with that
    /// phase's wall-clock time and counter deltas.
    pub fn seal(&mut self, executor: &str, timer: &PhaseTimer, trace: &mut TraceSink) {
        self.stats = self.phases.total();
        if trace.is_enabled() {
            for (phase, delta) in self.phases.iter() {
                let span = format!("{executor}/{}", phase.name());
                trace.emit(&span, timer.elapsed_us(phase), &delta.counters());
            }
        }
    }
}

/// Result of a selection executor: matching tuple ids plus stats.
#[derive(Debug, Clone, Default)]
pub struct SelectRun {
    pub matches: Vec<u64>,
    pub stats: ExecStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_weights_components() {
        let s = ExecStats {
            physical_reads: 3,
            physical_writes: 1,
            logical_reads: 10,
            theta_evals: 5,
            filter_evals: 7,
            passes: 1,
            ..Default::default()
        };
        assert_eq!(s.comparisons(), 12);
        assert_eq!(s.cost(1.0, 1000.0), 12.0 + 4000.0);
    }

    #[test]
    fn add_assign_is_field_wise_sum() {
        let mut a = ExecStats {
            physical_reads: 1,
            physical_writes: 2,
            logical_reads: 3,
            theta_evals: 4,
            filter_evals: 5,
            passes: 6,
            decoded_exact: 7,
            margin_hits: 8,
            margin_misses: 9,
        };
        let b = ExecStats {
            physical_reads: 10,
            physical_writes: 20,
            logical_reads: 30,
            theta_evals: 40,
            filter_evals: 50,
            passes: 60,
            decoded_exact: 70,
            margin_hits: 80,
            margin_misses: 90,
        };
        a += b;
        assert_eq!(
            a,
            ExecStats {
                physical_reads: 11,
                physical_writes: 22,
                logical_reads: 33,
                theta_evals: 44,
                filter_evals: 55,
                passes: 66,
                decoded_exact: 77,
                margin_hits: 88,
                margin_misses: 99,
            }
        );
        let mut c = ExecStats::default();
        c.merge(&a);
        c.merge(&b);
        assert_eq!(c.theta_evals, 84);
        assert_eq!(c.comparisons(), 84 + 105);
    }

    #[test]
    fn extra_passes_are_free_in_model_units() {
        // §4.1 prices comparisons and page transfers only; a memory
        // pass shows up as rescan I/O, never as a separate charge.
        let one_pass = ExecStats {
            physical_reads: 40,
            theta_evals: 100,
            passes: 1,
            ..Default::default()
        };
        let many_passes = ExecStats {
            passes: 7,
            ..one_pass
        };
        assert_eq!(
            one_pass.cost(1.0, 1000.0),
            many_passes.cost(1.0, 1000.0),
            "passes must not be priced directly"
        );
        // ...while the rescan I/O a pass causes *is* priced:
        let rescanned = ExecStats {
            physical_reads: 80,
            ..many_passes
        };
        assert!(rescanned.cost(1.0, 1000.0) > many_passes.cost(1.0, 1000.0));
    }

    #[test]
    fn phase_deltas_sum_to_totals_and_seal_enforces_it() {
        let mut run = JoinRun::default();
        run.phases.record(
            Phase::Partition,
            ExecStats {
                physical_reads: 4,
                passes: 1,
                ..Default::default()
            },
        );
        run.phases.record(
            Phase::Refine,
            ExecStats {
                theta_evals: 9,
                physical_reads: 2,
                ..Default::default()
            },
        );
        // Empty deltas are dropped; repeated records merge.
        run.phases.record(Phase::Filter, ExecStats::default());
        run.phases.record(
            Phase::Refine,
            ExecStats {
                theta_evals: 1,
                ..Default::default()
            },
        );
        assert_eq!(run.phases.iter().count(), 2);

        let timer = PhaseTimer::new(false);
        let mut sink = TraceSink::vec();
        run.seal("demo", &timer, &mut sink);
        assert_eq!(run.stats, run.phases.total());
        assert_eq!(run.stats.physical_reads, 6);
        assert_eq!(run.stats.theta_evals, 10);
        assert_eq!(run.stats.passes, 1);

        let spans: Vec<&str> = sink.events().iter().map(|e| e.span.as_str()).collect();
        assert_eq!(spans, ["demo/partition", "demo/refine"]);
        assert!(sink.events()[1].counters.contains(&("theta_evals", 10)));
    }

    #[test]
    fn phase_merge_is_phase_wise() {
        let mut a = PhaseStats::default();
        a.record(
            Phase::Filter,
            ExecStats {
                filter_evals: 5,
                ..Default::default()
            },
        );
        let mut b = PhaseStats::default();
        b.record(
            Phase::Filter,
            ExecStats {
                filter_evals: 3,
                ..Default::default()
            },
        );
        b.record(
            Phase::IndexProbe,
            ExecStats {
                physical_reads: 2,
                ..Default::default()
            },
        );
        a.merge(&b);
        assert_eq!(a.get(Phase::Filter).filter_evals, 8);
        assert_eq!(a.get(Phase::IndexProbe).physical_reads, 2);
        assert_eq!(a.total().filter_evals, 8);
    }

    #[test]
    fn add_io_accumulates() {
        let mut s = ExecStats::default();
        s.add_io(IoStats {
            physical_reads: 2,
            physical_writes: 1,
            logical_reads: 5,
        });
        s.add_io(IoStats {
            physical_reads: 1,
            physical_writes: 0,
            logical_reads: 2,
        });
        assert_eq!(s.physical_reads, 3);
        assert_eq!(s.physical_writes, 1);
        assert_eq!(s.logical_reads, 7);
    }
}
