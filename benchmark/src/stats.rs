//! The statistics every verdict of this benchmark rests on: sample
//! quantiles, the tail percentile a sample can support, Python's
//! `statistics.quantiles(n=4)` quartiles (the driver's spread rule), and
//! the reply digest.

/// Linear-interpolation quantile (`q` in `[0, 1]`) of an unsorted
/// sample; 0 for an empty one. `q = 0.5` of an even-sized sample is the
/// mean of the two middle values.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The percentiles a report may quote, ascending, in per-mille (so the
/// "ten samples beyond" rule is integer arithmetic, exact at 100 and
/// 1 000 samples).
pub const TAIL_CANDIDATES: [usize; 5] = [500, 900, 950, 990, 999];

/// The highest candidate percentile with at least ten samples beyond
/// it — the tail a sample of this size can support. `None` below 20
/// samples (even the median then has fewer than ten on either side).
pub fn supported_tail(count: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .rev()
        .find(|permille| count * (1_000 - *permille) >= 10_000)
        .map(|permille| *permille as f64 / 10.0)
}

/// `statistics.quantiles(values, n=4)` exactly as Python computes it
/// (the default exclusive method) — the rule the driver uses for the
/// spread of ten runs. Needs at least two values.
pub fn quartiles_exclusive(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let len = data.len();
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in (1..4usize).enumerate() {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        out[slot] = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the spread the
/// driver compares with a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles_exclusive(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// FNV-1a, 64-bit: the digest of replies and outcomes. Stable across
/// runs, platforms and commits — it depends on the bytes fed and
/// nothing else.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn new() -> Self {
        Digest::default()
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_small_odd_even() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.5), 7.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        // Odd: the middle element.
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // Even: mean of the two middle elements.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // Interpolated ranks.
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert!((quantile(&[1.0, 2.0, 3.0, 4.0], 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 0.0), 1.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 1.0), 3.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(5), None);
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(99), Some(50.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles_exclusive(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            [1.5, 4.0, 12.0]
        );
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        assert_eq!(quartiles_exclusive(&[3.0, 5.0]), [2.5, 4.0, 5.5]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        // The FNV-1a test vector for "a".
        let mut d = Digest::new();
        d.bytes(b"a");
        assert_eq!(d.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut x = Digest::new();
        x.u64(1);
        x.u64(2);
        let mut y = Digest::new();
        y.u64(2);
        y.u64(1);
        assert_ne!(x.finish(), y.finish());
        let mut z = Digest::new();
        z.u64(1);
        z.u64(2);
        assert_eq!(x.finish(), z.finish());
    }
}
