//! Exact order statistics and the output digest. Nothing here estimates:
//! percentiles come from sorted samples, never from a bucketed histogram.

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by the nearest-rank rule:
/// the smallest sample with at least `q·n` samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of `values`: the middle sample, or the mean of the two
/// middle samples of an even count.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The paper's relative standard deviation (Fig. 10): sample standard
/// deviation over the mean. Zero for fewer than two values.
pub fn rsd(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
    if mean == 0.0 {
        0.0
    } else {
        var.sqrt() / mean
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them — the rule the acceptance check
/// uses for run-to-run spread. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median; 0 when undefined.
pub fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), Some(m)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// Order-sensitive 64-bit digest of a record stream: each record's
/// length and bytes are folded in, eight bytes at a time, so swapping,
/// dropping, duplicating or re-splitting records changes the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    state: u64,
    /// Records folded in so far.
    pub count: u64,
}

const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;
const DIGEST_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

impl Default for Digest {
    fn default() -> Self {
        Digest {
            state: DIGEST_SEED,
            count: 0,
        }
    }
}

impl Digest {
    fn mix(&mut self, word: u64) {
        self.state = (self.state ^ word).wrapping_mul(DIGEST_MUL).rotate_left(29);
    }

    /// Folds one record in.
    pub fn push(&mut self, record: &[u8]) {
        self.mix(record.len() as u64);
        let mut chunks = record.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.mix(u64::from_le_bytes(tail));
        self.count += 1;
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.state
    }
}

/// Counts distinct values in a non-decreasing stamp sequence — the
/// number of appends a topic received, since one append stamps its whole
/// batch with one `LogAppendTime` (two appends within one microsecond
/// count once).
#[derive(Debug, Default, Clone, Copy)]
pub struct StampRuns {
    last: Option<i64>,
    /// Distinct stamps seen.
    pub distinct: u64,
}

impl StampRuns {
    /// Feeds the next record's stamp.
    pub fn push(&mut self, stamp: i64) {
        if self.last != Some(stamp) {
            self.distinct += 1;
            self.last = Some(stamp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        // A log2 histogram could only answer 64 or 128 here.
        assert_eq!(percentile(&[90.0, 91.0, 97.0], 0.5), Some(91.0));
    }

    #[test]
    fn median_of_r_trials() {
        assert_eq!(median(&[5.0, 1.0, 9.0]), Some(5.0));
        assert_eq!(median(&[4.0, 1.0, 9.0, 2.0]), Some(3.0));
        assert_eq!(median(&[100.0, 1.0, 2.0, 3.0, 4.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn rsd_matches_the_paper_formula() {
        assert_eq!(rsd(&[3.0]), 0.0);
        let r = rsd(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((r - 2.138_089_935 / 5.0).abs() < 1e-6, "{r}");
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn digest_sees_order_loss_and_resplitting() {
        let digest = |records: &[&[u8]]| {
            let mut d = Digest::default();
            for r in records {
                d.push(r);
            }
            (d.value(), d.count)
        };
        let base = digest(&[b"alpha", b"beta", b"gamma-gamma"]);
        assert_eq!(base, digest(&[b"alpha", b"beta", b"gamma-gamma"]));
        assert_ne!(base, digest(&[b"beta", b"alpha", b"gamma-gamma"]));
        assert_ne!(base, digest(&[b"alpha", b"beta"]));
        assert_ne!(base, digest(&[b"alphabeta", b"", b"gamma-gamma"]));
        assert_ne!(base.0, digest(&[b"alpha", b"beta", b"gamma-gammb"]).0);
        assert_ne!(digest(&[b""]).0, digest(&[b"\0"]).0);
    }

    #[test]
    fn distinct_stamps_count_appends() {
        let mut runs = StampRuns::default();
        for s in [10, 10, 10, 12, 12, 40] {
            runs.push(s);
        }
        assert_eq!(runs.distinct, 3);
        assert_eq!(StampRuns::default().distinct, 0);
    }
}
