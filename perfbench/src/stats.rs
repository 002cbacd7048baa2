//! Sample statistics with an explicit validity rule.
//!
//! A tail percentile read from too few samples is noise: with 200
//! samples, "p99" is the second-largest value. Every percentile this
//! benchmark reports must have at least [`TAIL_SAMPLES`] samples beyond
//! it; a metric whose run did not collect that many is invalid and the
//! run fails instead of printing it.

use std::fmt;

/// Samples that must lie strictly beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// A percentile the sample count cannot support.
#[derive(Debug, Clone, PartialEq)]
pub struct Invalid {
    pub metric: String,
    pub percentile: f64,
    pub samples: usize,
}

impl Invalid {
    /// Samples the named percentile needs.
    pub fn needed(&self) -> usize {
        samples_needed(self.percentile)
    }
}

impl fmt::Display for Invalid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: p{} needs {} samples, run collected {}",
            self.metric,
            self.percentile,
            self.needed(),
            self.samples
        )
    }
}

/// Nearest rank (1-based) of percentile `p` (in percent) among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    // The epsilon keeps float error in `p * n` from bumping an exact
    // rank up by one.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Highest percentile (in percent) that `n` samples support with at
/// least [`TAIL_SAMPLES`] samples beyond it, or `None` when there are
/// too few samples for any.
pub fn highest_supported(n: usize) -> Option<f64> {
    (n > TAIL_SAMPLES).then(|| 100.0 * (n - TAIL_SAMPLES) as f64 / n as f64)
}

/// Smallest sample count that supports percentile `p`.
pub fn samples_needed(p: f64) -> usize {
    (1..)
        .find(|&n| n > TAIL_SAMPLES && n - rank(p, n) >= TAIL_SAMPLES)
        .expect("some sample count supports any percentile below 100")
}

/// Nearest-rank percentile `p` of `samples`, or [`Invalid`] when fewer
/// than [`TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(metric: &str, samples: &[f64], p: f64) -> Result<f64, Invalid> {
    let n = samples.len();
    if n == 0 || n - rank(p, n) < TAIL_SAMPLES {
        return Err(Invalid {
            metric: metric.to_string(),
            percentile: p,
            samples: n,
        });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank(p, n) - 1])
}

/// Robust per-run percentile: the samples (in completion order) are cut
/// into up to `max_groups` consecutive groups that each support `p` on
/// their own, and the median of the groups' percentiles is returned. A
/// burst of host noise then spoils one group instead of the run. With
/// too few samples for even one group the metric is [`Invalid`].
pub fn grouped_percentile(
    metric: &str,
    samples: &[f64],
    p: f64,
    max_groups: usize,
) -> Result<f64, Invalid> {
    let groups = (samples.len() / samples_needed(p)).clamp(1, max_groups.max(1));
    let size = samples.len() / groups;
    let per_group = (0..groups)
        .map(|g| {
            let end = if g + 1 == groups {
                samples.len()
            } else {
                (g + 1) * size
            };
            percentile(metric, &samples[g * size..end], p)
        })
        .collect::<Result<Vec<f64>, Invalid>>()?;
    Ok(median(&per_group))
}

/// Median over `slices` equal slices of a `window_s` window of the rate
/// of events at the given times (seconds since the window opened).
pub fn sliced_rate(times: &[f64], window_s: f64, slices: usize) -> f64 {
    let width = window_s / slices as f64;
    let mut counts = vec![0usize; slices];
    for &t in times {
        counts[((t / width) as usize).min(slices - 1)] += 1;
    }
    median(&counts.iter().map(|&c| c as f64 / width).collect::<Vec<_>>())
}

/// Like [`percentile`], but an empty sample set — a layer the workload
/// never exercises — reads as 0 instead of invalid.
pub fn layer_percentile(metric: &str, samples: &[f64], p: f64) -> Result<f64, Invalid> {
    if samples.is_empty() {
        return Ok(0.0);
    }
    percentile(metric, samples, p)
}

/// Median (no tail requirement), 0 for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean, 0 for an empty set.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Answered, and the answer matched the oracle.
    Ok,
    /// The system returned an error or the connection failed.
    Failed,
    /// Admission control refused it (`429 BUSY`).
    Refused,
    /// Answered, but the answer differs from the oracle.
    Mismatch,
}

/// Whether a request counts toward goodput: answered correctly within
/// `limit_ms`. Failed, refused and mismatched requests all miss the
/// limit, however fast they came back.
pub fn meets_limit(status: Status, latency_ms: f64, limit_ms: f64) -> bool {
    status == Status::Ok && latency_ms <= limit_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(samples_needed(99.0), 1000);
        assert_eq!(samples_needed(95.0), 200);
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(samples_needed(50.0), 20);
        assert!(percentile("x", &ramp(999), 99.0).is_err());
        // Rank 990 of 1000 leaves exactly 10 samples beyond it.
        assert_eq!(percentile("x", &ramp(1000), 99.0), Ok(990.0));
    }

    #[test]
    fn invalid_names_metric_and_counts() {
        let err = percentile("join_p90_ms", &ramp(99), 90.0).unwrap_err();
        assert_eq!(err.metric, "join_p90_ms");
        assert_eq!(err.samples, 99);
        assert_eq!(err.needed(), 100);
        assert!(err.to_string().contains("needs 100 samples"));
        assert!(percentile("x", &[], 50.0).is_err());
    }

    #[test]
    fn highest_supported_leaves_ten_beyond() {
        assert_eq!(highest_supported(10), None);
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(200), Some(95.0));
        for n in [11, 57, 100, 333, 1000, 4321] {
            let p = highest_supported(n).unwrap();
            let r = rank(p, n);
            assert!(n - r >= TAIL_SAMPLES, "n={n} p={p} leaves {}", n - r);
            // Anything higher leaves fewer than ten beyond.
            assert!(n - rank(p + 0.5, n) < TAIL_SAMPLES || p + 0.5 > 100.0);
            assert!(percentile("x", &ramp(n), p).is_ok());
        }
    }

    #[test]
    fn percentile_is_order_independent() {
        let mut v = ramp(500);
        v.reverse();
        assert_eq!(percentile("x", &v, 50.0), Ok(250.0));
        assert_eq!(percentile("x", &v, 95.0), Ok(475.0));
    }

    #[test]
    fn grouped_percentile_shrugs_off_one_noisy_group() {
        // 3000 samples: three groups of 1000, each supporting p99.
        let mut v: Vec<f64> = (0..3000).map(|i| (i % 1000) as f64).collect();
        let clean = grouped_percentile("x", &v, 99.0, 5).unwrap();
        assert_eq!(clean, 989.0);
        // A burst in the middle group moves that group's p99 only.
        for x in &mut v[1000..1100] {
            *x = 1e6;
        }
        assert_eq!(grouped_percentile("x", &v, 99.0, 5), Ok(989.0));
        // The pooled percentile would have jumped.
        assert_eq!(percentile("x", &v, 99.0), Ok(1e6));
    }

    #[test]
    fn grouped_percentile_keeps_the_validity_rule() {
        assert!(grouped_percentile("x", &ramp(999), 99.0, 5).is_err());
        // One group when only one fits; max_groups caps the split.
        assert_eq!(
            grouped_percentile("x", &ramp(1500), 99.0, 5),
            percentile("x", &ramp(1500), 99.0)
        );
        let v = ramp(100_000);
        let g = grouped_percentile("x", &v, 50.0, 4).unwrap();
        assert_eq!(g, median(&[12500.0, 37500.0, 62500.0, 87500.0]));
    }

    #[test]
    fn sliced_rate_takes_the_median_slice() {
        // 10 s window, 5 slices: 10 events per slice, one slice empty.
        let mut t: Vec<f64> = (0..50).map(|i| i as f64 * 0.2).collect();
        t.retain(|&x| !(4.0..6.0).contains(&x));
        assert_eq!(sliced_rate(&t, 10.0, 5), 5.0);
        assert_eq!(sliced_rate(&[], 10.0, 5), 0.0);
    }

    #[test]
    fn layer_percentile_reads_unexercised_as_zero() {
        assert_eq!(layer_percentile("x", &[], 99.0), Ok(0.0));
        assert!(layer_percentile("x", &ramp(50), 99.0).is_err());
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn goodput_counts_failed_and_refused_as_misses() {
        let outcomes = [
            (Status::Ok, 5.0, 0.5),
            (Status::Ok, 50.0, 1.5),      // over the limit
            (Status::Failed, 1.0, 2.5),   // fast, but failed
            (Status::Refused, 0.5, 3.5),  // 429 BUSY
            (Status::Mismatch, 2.0, 4.5), // wrong answer
            (Status::Ok, 10.0, 5.5),      // exactly at the limit
        ];
        let good = |limit: f64| -> Vec<f64> {
            outcomes
                .iter()
                .filter(|(s, lat, _)| meets_limit(*s, *lat, limit))
                .map(|(_, _, t)| *t)
                .collect()
        };
        assert_eq!(good(10.0), vec![0.5, 5.5]);
        assert_eq!(good(100.0), vec![0.5, 1.5, 5.5]);
        // Six one-second slices: two good answers, median slice rate 0.
        assert_eq!(sliced_rate(&good(10.0), 6.0, 6), 0.0);
        assert_eq!(sliced_rate(&good(10.0), 6.0, 1), 2.0 / 6.0);
    }
}
