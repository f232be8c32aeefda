//! `sj-obs`: zero-dependency structured observability.
//!
//! Four small pieces, designed to be wired through hot join loops
//! without perturbing the counters the cost model depends on:
//!
//! - [`Phase`] / [`PhaseTimer`]: the four-phase taxonomy every join
//!   executor reports against (`partition`, `filter`, `refine`,
//!   `index-probe`) plus a wall-clock accumulator for them. With a
//!   disabled timer (the [`TraceSink::Null`] case) `enter`/`stop` are
//!   plain branches — no `Instant::now()` calls, so instrumented
//!   executors reduce to the counter adds they always did.
//! - [`CounterRegistry`]: monotonic named counters keyed by `&'static
//!   str` (e.g. `bufferpool.hits`). Counters only ever go up; `add`
//!   merges by name.
//! - [`TraceSink`] / [`TraceEvent`]: an in-memory span recorder. Each
//!   event is a span name, its duration and its counter deltas. `Null`
//!   drops everything; `Vec` buffers events for the caller to read (the
//!   benchmark's layer probes, the shard router's trace merge, tests).
//! - [`Histogram`]: a log₂-bucketed latency histogram (64 buckets, one
//!   per power of two) with `O(1)` recording, exact count/max tracking,
//!   mergeable buckets, and conservative upper-bound quantiles — the
//!   per-request tail-latency accumulator of the serving layer.
//!
//! The crate is deliberately free of dependencies (not even the
//! vendored shims) so every other crate in the workspace can use it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The phase taxonomy shared by all join executors.
///
/// - `Partition`: building the working set — chunk loads, MBR
///   extraction scans, tile/bucket decomposition, sorting by z-value.
/// - `Filter`: approximate candidate tests on MBRs / cells / z-ranges.
/// - `Refine`: exact θ-evaluation on fetched geometries (and the lazy
///   geometry I/O it triggers).
/// - `IndexProbe`: traversing a prebuilt structure (B⁺-tree,
///   generalization tree, precomputed join index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    Partition,
    Filter,
    Refine,
    IndexProbe,
}

impl Phase {
    /// All phases, in canonical reporting order.
    pub const ALL: [Phase; 4] = [
        Phase::Partition,
        Phase::Filter,
        Phase::Refine,
        Phase::IndexProbe,
    ];

    /// Stable lowercase name used in trace spans and JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Partition => "partition",
            Phase::Filter => "filter",
            Phase::Refine => "refine",
            Phase::IndexProbe => "index-probe",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Partition => 0,
            Phase::Filter => 1,
            Phase::Refine => 2,
            Phase::IndexProbe => 3,
        }
    }
}

/// Monotonic counter registry keyed by static names.
///
/// Backed by a small vector (registries hold a handful of counters);
/// `add` merges deltas into an existing entry by name.
#[derive(Debug, Default, Clone)]
pub struct CounterRegistry {
    counters: Vec<(&'static str, u64)>,
}

impl CounterRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the named counter, creating it at zero first if
    /// this is the first sighting. Counters are monotonic: there is no
    /// way to decrement or reset an individual entry.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        if let Some(entry) = self.counters.iter_mut().find(|(n, _)| *n == name) {
            entry.1 += delta;
        } else {
            self.counters.push((name, delta));
        }
    }

    /// Current value of a counter (zero if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// All counters in first-touch order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().copied()
    }

    /// Borrow the counters as the slice shape [`TraceSink::emit`] takes.
    pub fn as_counters(&self) -> &[(&'static str, u64)] {
        &self.counters
    }

    pub fn len(&self) -> usize {
        self.counters.len()
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }
}

/// One emitted trace record: a named span, its wall-clock duration in
/// microseconds, and the counter deltas attributed to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    pub span: String,
    pub dur_us: u64,
    pub counters: Vec<(&'static str, u64)>,
}

/// Where trace events go.
///
/// `Null` is the default and costs nothing: emitters check
/// [`is_enabled`](TraceSink::is_enabled) before building events, and
/// [`PhaseTimer::for_sink`] skips clock reads entirely.
#[derive(Debug, Default)]
pub enum TraceSink {
    #[default]
    Null,
    Vec(Vec<TraceEvent>),
}

impl TraceSink {
    pub fn null() -> Self {
        TraceSink::Null
    }

    /// In-memory sink; inspect with [`events`](TraceSink::events).
    pub fn vec() -> Self {
        TraceSink::Vec(Vec::new())
    }

    /// Whether emitting to this sink can observe anything. Callers use
    /// this to skip span construction and wall-clock reads.
    pub fn is_enabled(&self) -> bool {
        !matches!(self, TraceSink::Null)
    }

    /// Record one event. A no-op on `Null`.
    pub fn emit(&mut self, span: &str, dur_us: u64, counters: &[(&'static str, u64)]) {
        match self {
            TraceSink::Null => {}
            TraceSink::Vec(events) => events.push(TraceEvent {
                span: span.to_string(),
                dur_us,
                counters: counters.to_vec(),
            }),
        }
    }

    /// Buffered events (`Vec` sink only; empty slice otherwise).
    pub fn events(&self) -> &[TraceEvent] {
        match self {
            TraceSink::Vec(events) => events,
            TraceSink::Null => &[],
        }
    }

    /// Fold another sink's events into this one, namespacing each span
    /// as `prefix/original-span`. This is the merge operation of a
    /// scatter-gather coordinator: per-shard sinks are recorded
    /// independently, then absorbed into one stream as
    /// `shard:3/grid/refine`-style spans, so a merged trace still
    /// attributes every phase to the shard that ran it. Durations and
    /// counters pass through unchanged; a no-op on `Null`.
    pub fn absorb(&mut self, prefix: &str, events: &[TraceEvent]) {
        if !self.is_enabled() {
            return;
        }
        for ev in events {
            self.emit(&format!("{prefix}/{}", ev.span), ev.dur_us, &ev.counters);
        }
    }
}

/// Per-phase wall-clock accumulator.
///
/// At most one phase is active at a time; `enter` closes the previous
/// phase and opens the next, `stop` closes the current one. When
/// constructed disabled (the `TraceSink::Null` path) every method is a
/// branch on a bool — no clock reads — so instrumented executors cost
/// the same as uninstrumented ones.
#[derive(Debug)]
pub struct PhaseTimer {
    enabled: bool,
    acc_us: [u64; 4],
    current: Option<(Phase, Instant)>,
}

impl PhaseTimer {
    pub fn new(enabled: bool) -> Self {
        PhaseTimer {
            enabled,
            acc_us: [0; 4],
            current: None,
        }
    }

    /// Enabled exactly when the sink can observe durations.
    pub fn for_sink(sink: &TraceSink) -> Self {
        Self::new(sink.is_enabled())
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Switch the active phase (closing the previous one, if any).
    pub fn enter(&mut self, phase: Phase) {
        if !self.enabled {
            return;
        }
        let now = Instant::now();
        self.settle(now);
        self.current = Some((phase, now));
    }

    /// Close the active phase without opening a new one.
    pub fn stop(&mut self) {
        if !self.enabled {
            return;
        }
        let now = Instant::now();
        self.settle(now);
    }

    fn settle(&mut self, now: Instant) {
        if let Some((phase, since)) = self.current.take() {
            self.acc_us[phase.index()] += now.duration_since(since).as_micros() as u64;
        }
    }

    /// Accumulated microseconds for a phase (zero when disabled).
    pub fn elapsed_us(&self, phase: Phase) -> u64 {
        self.acc_us[phase.index()]
    }
}

/// A log₂-bucketed histogram over `u64` samples (microseconds, bytes,
/// counts — any non-negative magnitude).
///
/// Bucket `i` holds samples whose highest set bit is `i` (samples `0`
/// and `1` share bucket 0), so 64 fixed buckets cover the full `u64`
/// range with at most 2× relative quantile error. Recording is a shift
/// and an add; histograms merge bucket-wise, so per-worker histograms
/// can be combined into service totals without locks on the hot path.
///
/// Quantiles are *conservative upper bounds*: [`Histogram::quantile`]
/// returns the inclusive upper edge of the bucket containing the q-th
/// sample (clamped to the observed maximum), so reported p99 never
/// understates the true p99. Quantiles are monotone in `q` and bucket
/// counts always sum to [`Histogram::count`] (property-tested in
/// `tests/prop_histogram.rs`).
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index of a sample: the position of its highest set bit
    /// (0 for samples 0 and 1).
    #[inline]
    fn bucket_of(value: u64) -> usize {
        (63 - value.max(1).leading_zeros()) as usize
    }

    /// Inclusive upper edge of bucket `i`: the largest sample the bucket
    /// can hold (`2^(i+1) - 1`, saturating at `u64::MAX`).
    #[inline]
    fn bucket_upper(i: usize) -> u64 {
        if i >= 63 {
            u64::MAX
        } else {
            (2u64 << i) - 1
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The 64 per-bucket counts, index = highest-set-bit position.
    pub fn bucket_counts(&self) -> &[u64; 64] {
        &self.buckets
    }

    /// Conservative quantile: the upper edge of the bucket containing
    /// the `⌈q·count⌉`-th smallest sample, clamped to the observed max
    /// so a single-bucket histogram reports its true extreme. Returns 0
    /// on an empty histogram. `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil(q * count), at least 1 so q=0 is the first sample.
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Fold another histogram into this one, bucket-wise.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The standard summary counters (`count`, `p50`, `p95`, `p99`,
    /// `max`, `mean`) in the shape [`TraceSink::emit`] takes. The span's
    /// `dur_us` conventionally carries [`Histogram::sum`] so consumers
    /// can recover total time from the same line.
    pub fn summary_counters(&self) -> [(&'static str, u64); 6] {
        [
            ("count", self.count),
            ("p50", self.quantile(0.50)),
            ("p95", self.quantile(0.95)),
            ("p99", self.quantile(0.99)),
            ("max", self.max),
            ("mean", self.mean() as u64),
        ]
    }

    /// Emit one `{span, dur_us: sum, counters: summary}` trace event.
    pub fn emit(&self, sink: &mut TraceSink, span: &str) {
        sink.emit(span, self.sum, &self.summary_counters());
    }
}

/// A [`Histogram`] whose recording path is lock-free: every bucket and
/// summary statistic is an atomic, so any number of threads can record
/// concurrently through a shared reference while a reporter thread
/// takes [`AtomicHistogram::snapshot`]s — no mutex anywhere.
///
/// This is the serving layer's per-worker accumulator: each worker owns
/// one (so recording is uncontended in practice), and exporters merge
/// worker snapshots with [`Histogram::merge`]. Snapshots are *not*
/// atomic across fields — a snapshot taken mid-record may transiently
/// see `count` without the matching `sum` — which is fine for telemetry
/// and exactly why the quiescent-state tests below only assert after
/// recording stops.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; 64],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample: two relaxed adds, a saturating add, and a
    /// monotonic max — no locks, no ordering dependencies between
    /// recorders.
    pub fn record(&self, value: u64) {
        self.buckets[Histogram::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturating add: CAS loop only near u64::MAX, plain add otherwise.
        let prev = self.sum.fetch_add(value, Ordering::Relaxed);
        if prev.checked_add(value).is_none() {
            self.sum.store(u64::MAX, Ordering::Relaxed);
        }
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A plain [`Histogram`] copy of the current state, ready for
    /// quantiles, merging, and trace emission.
    pub fn snapshot(&self) -> Histogram {
        let mut h = Histogram::new();
        for (dst, src) in h.buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        h.count = self.count.load(Ordering::Relaxed);
        h.sum = self.sum.load(Ordering::Relaxed);
        h.max = self.max.load(Ordering::Relaxed);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_monotonic_and_merges_by_name() {
        let mut reg = CounterRegistry::new();
        assert!(reg.is_empty());
        reg.add("bufferpool.hits", 3);
        reg.add("bufferpool.misses", 1);
        reg.add("bufferpool.hits", 4);
        assert_eq!(reg.get("bufferpool.hits"), 7);
        assert_eq!(reg.get("bufferpool.misses"), 1);
        assert_eq!(reg.get("never.touched"), 0);
        assert_eq!(reg.len(), 2);
        let names: Vec<&str> = reg.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["bufferpool.hits", "bufferpool.misses"]);
    }

    #[test]
    fn null_sink_is_disabled_and_drops_events() {
        let mut sink = TraceSink::null();
        assert!(!sink.is_enabled());
        sink.emit("x", 1, &[("c", 1)]);
        assert!(sink.events().is_empty());
    }

    #[test]
    fn vec_sink_buffers_events_in_order() {
        let mut sink = TraceSink::vec();
        assert!(sink.is_enabled());
        sink.emit("a", 1, &[("c", 1)]);
        sink.emit("b", 2, &[]);
        let spans: Vec<&str> = sink.events().iter().map(|e| e.span.as_str()).collect();
        assert_eq!(spans, ["a", "b"]);
        assert_eq!(sink.events()[0].counters, vec![("c", 1)]);
    }

    #[test]
    fn phase_timer_accumulates_only_when_enabled() {
        let mut t = PhaseTimer::new(true);
        t.enter(Phase::Partition);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.enter(Phase::Refine);
        t.stop();
        assert!(t.elapsed_us(Phase::Partition) > 0);
        assert_eq!(t.elapsed_us(Phase::Filter), 0);

        let mut off = PhaseTimer::for_sink(&TraceSink::Null);
        off.enter(Phase::Partition);
        std::thread::sleep(std::time::Duration::from_millis(1));
        off.stop();
        assert_eq!(off.elapsed_us(Phase::Partition), 0);
    }

    #[test]
    fn histogram_buckets_by_highest_bit() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1023, 1024] {
            h.record(v);
        }
        let b = h.bucket_counts();
        assert_eq!(b[0], 2); // 0, 1
        assert_eq!(b[1], 2); // 2, 3
        assert_eq!(b[2], 2); // 4, 7
        assert_eq!(b[3], 1); // 8
        assert_eq!(b[9], 1); // 1023
        assert_eq!(b[10], 1); // 1024
        assert_eq!(h.count(), 9);
        assert_eq!(h.max(), 1024);
        assert_eq!(b.iter().sum::<u64>(), h.count());
    }

    #[test]
    fn histogram_quantiles_bound_true_values() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // Upper-bound property: quantile(q) ≥ true q-th value, and never
        // exceeds the next power of two (≤ 2× relative error).
        for (q, truth) in [(0.5, 500u64), (0.95, 950), (0.99, 990), (1.0, 1000)] {
            let est = h.quantile(q);
            assert!(est >= truth, "q={q}: {est} < {truth}");
            assert!(est < truth * 2, "q={q}: {est} ≥ 2×{truth}");
        }
        assert_eq!(h.quantile(1.0), 1000, "p100 clamps to the observed max");
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn histogram_merge_is_bucketwise() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1, 5, 9] {
            a.record(v);
        }
        for v in [2, 5, 1_000_000] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 6);
        assert_eq!(a.max(), 1_000_000);
        assert_eq!(a.sum(), 1 + 5 + 9 + 2 + 5 + 1_000_000);
        assert_eq!(a.bucket_counts().iter().sum::<u64>(), 6);
    }

    #[test]
    fn histogram_emits_summary_event() {
        let mut h = Histogram::new();
        for v in [10, 20, 40] {
            h.record(v);
        }
        let mut sink = TraceSink::vec();
        h.emit(&mut sink, "service/latency/total");
        let ev = &sink.events()[0];
        assert_eq!(ev.span, "service/latency/total");
        assert_eq!(ev.dur_us, 70);
        let get = |name: &str| {
            ev.counters
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(get("count"), 3);
        assert_eq!(get("max"), 40);
        assert!(get("p50") >= 20);
        assert!(get("p99") >= get("p50"), "quantiles must be monotone");
    }

    #[test]
    fn absorb_namespaces_spans_per_shard() {
        let mut shard0 = TraceSink::vec();
        shard0.emit("grid/refine", 7, &[("theta_evals", 3)]);
        let mut shard1 = TraceSink::vec();
        shard1.emit("grid/refine", 9, &[("theta_evals", 5)]);
        shard1.emit("grid/outside_world", 0, &[("r_outside", 1)]);

        let mut merged = TraceSink::vec();
        merged.absorb("shard:0", shard0.events());
        merged.absorb("shard:1", shard1.events());
        let spans: Vec<&str> = merged.events().iter().map(|e| e.span.as_str()).collect();
        assert_eq!(
            spans,
            [
                "shard:0/grid/refine",
                "shard:1/grid/refine",
                "shard:1/grid/outside_world"
            ]
        );
        // Durations and counters pass through unchanged.
        assert_eq!(merged.events()[0].dur_us, 7);
        assert_eq!(merged.events()[2].counters, vec![("r_outside", 1)]);
        // Null sinks stay free: absorbing into one observes nothing.
        let mut null = TraceSink::null();
        null.absorb("shard:9", shard0.events());
        assert!(null.events().is_empty());
    }

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["partition", "filter", "refine", "index-probe"]);
    }

    #[test]
    fn atomic_histogram_snapshot_equals_sequential_recording() {
        let a = AtomicHistogram::new();
        let mut h = Histogram::new();
        for v in [0, 1, 2, 7, 100, 4096, u64::MAX] {
            a.record(v);
            h.record(v);
        }
        let snap = a.snapshot();
        assert_eq!(snap.bucket_counts(), h.bucket_counts());
        assert_eq!(snap.count(), h.count());
        assert_eq!(snap.sum(), h.sum());
        assert_eq!(snap.max(), h.max());
        assert_eq!(snap.quantile(0.5), h.quantile(0.5));
    }

    #[test]
    fn atomic_histogram_concurrent_records_lose_nothing() {
        let a = std::sync::Arc::new(AtomicHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let a = std::sync::Arc::clone(&a);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        a.record(t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = a.snapshot();
        assert_eq!(snap.count(), 4000);
        assert_eq!(snap.bucket_counts().iter().sum::<u64>(), 4000);
        assert_eq!(snap.max(), 3999);
        // Sum of 0..4000 shifted per thread: exact because adds are atomic.
        let want: u64 = (0..4u64)
            .map(|t| (0..1000).map(|i| t * 1000 + i).sum::<u64>())
            .sum();
        assert_eq!(snap.sum(), want);
    }

    #[test]
    fn atomic_histogram_snapshots_merge_like_histograms() {
        let a = AtomicHistogram::new();
        let b = AtomicHistogram::new();
        a.record(5);
        a.record(900);
        b.record(63);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.sum(), 968);
        assert_eq!(merged.max(), 900);
    }
}
