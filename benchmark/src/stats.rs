//! Percentiles and summaries.
//!
//! A timing is reported as its median plus the highest percentile that still
//! has at least [`MIN_BEYOND`] samples beyond it, and the sample count is
//! always carried along: a 99-sample series has no p99 to report.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles a summary may report as its tail, best first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Median and tail of one series.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub samples: usize,
    /// The median.
    pub median: f64,
    /// `(percentile, value)` of the highest reportable percentile, if any.
    pub tail: Option<(f64, f64)>,
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p50 {:.4}", self.median)?;
        match self.tail {
            Some((p, v)) => write!(f, ", p{p} {v:.4}")?,
            None => write!(f, ", no tail percentile")?,
        }
        write!(f, " (n={})", self.samples)
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated percentile `p` (0–100) of an ascending series.
fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Whether `samples` values leave at least [`MIN_BEYOND`] beyond percentile `p`.
pub fn supports_percentile(samples: usize, p: f64) -> bool {
    // The small slack keeps 10 000 × 0.1 % from rounding to just under 10.
    samples as f64 * (100.0 - p) / 100.0 >= MIN_BEYOND as f64 - 1e-9
}

/// Percentile `p` of `values`, or `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    supports_percentile(values.len(), p).then(|| percentile_of_sorted(&sorted(values), p))
}

/// Median of `values` (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    percentile_of_sorted(&sorted(values), 50.0)
}

/// Summarises a series: median, highest reportable percentile, count.
pub fn summarize(values: &[f64]) -> Summary {
    let s = sorted(values);
    let tail = TAIL_CANDIDATES
        .iter()
        .find(|&&p| supports_percentile(s.len(), p))
        .map(|&p| (p, percentile_of_sorted(&s, p)));
    Summary {
        samples: s.len(),
        median: median(&s),
        tail,
    }
}

/// Distance between the first and third quartile as a share of the median —
/// the run-to-run spread `compare` and the repeatability check use. Quartiles
/// follow Python's `statistics.quantiles(values, n=4)` (exclusive method).
/// `None` with fewer than two values or a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let quartile = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    let m = median(&s);
    (m != 0.0).then(|| (quartile(3) - quartile(1)).abs() / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_series() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn ninety_nine_samples_have_no_p99() {
        let s = series(99);
        assert_eq!(percentile(&s, 99.0), None);
        let summary = summarize(&s);
        assert_eq!(summary.samples, 99);
        // 99 × 25 % ≥ 10 but 99 × 10 % < 10: p75 is the highest tail.
        assert_eq!(summary.tail.map(|(p, _)| p), Some(75.0));
        let text = summary.to_string();
        assert!(text.contains("n=99") && !text.contains("p99"), "{text}");
    }

    #[test]
    fn a_thousand_samples_report_p99_and_the_count() {
        let s = series(1000);
        assert!(percentile(&s, 99.0).is_some());
        let summary = summarize(&s);
        assert_eq!(summary.tail.map(|(p, _)| p), Some(99.0));
        assert!(summary.to_string().contains("n=1000"));
        // 10 000 samples reach p99.9.
        assert_eq!(summarize(&series(10_000)).tail.map(|(p, _)| p), Some(99.9));
    }

    #[test]
    fn few_samples_report_only_the_median() {
        let summary = summarize(&series(12));
        assert_eq!(summary.tail, None);
        assert!(summary.to_string().contains("no tail percentile (n=12)"));
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let spread = quartile_spread(&series(10)).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
        assert_eq!(quartile_spread(&[5.0, 5.0, 5.0]), Some(0.0));
    }
}
