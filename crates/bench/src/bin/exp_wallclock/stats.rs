//! Order statistics for the window and latency samples.

/// The `q`-quantile (`0.0..=1.0`) of `sorted` by linear interpolation
/// between the two nearest ranks. `sorted` must be ascending and
/// non-empty.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Sorts `values` in place and returns its `q`-quantile.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile_sorted(values, q)
}

/// Median of `values` (sorts in place).
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// What one metric looked like across the measurement windows of a run:
/// the reported value is the median window; `spread` is the distance
/// between the first and third quartile of the windows over their median
/// (0 with a single window) — the statistic the regression bounds are
/// sized against.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSummary {
    pub median: f64,
    pub spread: f64,
    pub samples: Vec<f64>,
}

/// Summarises one metric's per-window values.
pub fn summarize_windows(samples: &[f64]) -> WindowSummary {
    let mut sorted = samples.to_vec();
    let median = median(&mut sorted);
    let spread = if median == 0.0 {
        0.0
    } else {
        (percentile_sorted(&sorted, 0.75) - percentile_sorted(&sorted, 0.25)) / median
    };
    WindowSummary {
        median,
        spread,
        samples: samples.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let mut v = [40.0, 10.0, 30.0, 20.0];
        assert_eq!(percentile(&mut v, 0.0), 10.0);
        assert_eq!(percentile(&mut v, 1.0), 40.0);
        assert_eq!(percentile(&mut v, 0.5), 25.0);
        assert!((percentile(&mut v, 0.9) - 37.0).abs() < 1e-9);
        assert_eq!(percentile(&mut [7.0], 0.99), 7.0);
    }

    #[test]
    fn percentile_clamps_the_quantile() {
        let sorted = [1.0, 2.0, 3.0];
        assert_eq!(percentile_sorted(&sorted, -1.0), 1.0);
        assert_eq!(percentile_sorted(&sorted, 2.0), 3.0);
    }

    #[test]
    fn window_summary_reports_median_and_interquartile_spread() {
        let s = summarize_windows(&[100.0, 104.0, 98.0, 101.0, 99.0]);
        assert_eq!(s.median, 100.0);
        assert!((s.spread - 0.02).abs() < 1e-12, "(101 - 99) / 100");
        assert_eq!(s.samples, vec![100.0, 104.0, 98.0, 101.0, 99.0]);
        let one = summarize_windows(&[5.0]);
        assert_eq!((one.median, one.spread), (5.0, 0.0));
    }
}
