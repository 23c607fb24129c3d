//! Order statistics over latency samples.

/// Samples that must lie beyond a reported percentile. With fewer the tail
/// estimate is a handful of scheduler hiccups, not a property of the system.
pub const MIN_BEYOND: usize = 10;

#[derive(Debug, PartialEq)]
pub struct TooFewSamples {
    pub have: usize,
    pub need: usize,
}

/// Nearest-rank percentile (`p` in `(0, 1)`) of `samples`, refused unless at
/// least [`MIN_BEYOND`] samples lie on each side of it.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, TooFewSamples> {
    assert!(p > 0.0 && p < 1.0, "percentile out of range");
    // 1 - 0.9 is a hair under 0.1 in binary; the slack keeps the need at 100.
    let need = (MIN_BEYOND as f64 / p.min(1.0 - p) - 1e-6).ceil() as usize;
    if samples.len() < need {
        return Err(TooFewSamples { have: samples.len(), need });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Ok(sorted[rank.max(1) - 1])
}

/// Samples per window of [`windowed`].
pub const WINDOW: usize = 100;
/// Complete windows a run must yield before anything is reported.
pub const MIN_WINDOWS: usize = 3;

/// The median, over consecutive windows of [`WINDOW`] samples, of `stat` of
/// each window (a trailing partial window is dropped). On a shared host the
/// noise is bursts of a second or so: they spoil the windows they fall in,
/// and the median across windows discards those, where a statistic over the
/// whole run would absorb them.
pub fn windowed<T>(
    samples: &[T],
    stat: impl Fn(&[T]) -> Result<f64, TooFewSamples>,
) -> Result<f64, TooFewSamples> {
    if samples.len() < WINDOW * MIN_WINDOWS {
        return Err(TooFewSamples { have: samples.len(), need: WINDOW * MIN_WINDOWS });
    }
    let per_window = samples.chunks_exact(WINDOW).map(stat).collect::<Result<Vec<f64>, _>>()?;
    Ok(median(&per_window).expect("at least MIN_WINDOWS windows"))
}

/// Plain median, for small sets (set-up repeats, recoveries) where no tail
/// is claimed. `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// Distance between the first and third quartile as a share of the median —
/// the spread the acceptance rule is written in. Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (exclusive method). 0 with fewer than
/// two values.
pub fn iqr_share(samples: &[f64]) -> f64 {
    let n = samples.len();
    let Some(med) = median(samples) else { return 0.0 };
    if n < 2 || med == 0.0 {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quartile = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
    };
    (quartile(3) - quartile(1)).abs() / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Ok(500.0));
        assert_eq!(percentile(&v, 0.95), Ok(950.0));
        assert_eq!(percentile(&v, 0.99), Ok(990.0));
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Err(TooFewSamples { have: 999, need: 1000 }));
        assert!(percentile(&v, 0.95).is_ok());
        assert_eq!(percentile(&v[..99], 0.9), Err(TooFewSamples { have: 99, need: 100 }));
        assert_eq!(percentile(&v[..100], 0.9), Ok(90.0));
        assert_eq!(percentile(&v[..19], 0.5), Err(TooFewSamples { have: 19, need: 20 }));
        assert!(percentile(&v[..20], 0.5).is_ok());
    }

    #[test]
    fn windowed_median_discards_a_spoiled_window() {
        // Five quiet windows at 10 and two disturbed ones at 30.
        let mut v = vec![10.0; 7 * WINDOW];
        v[WINDOW..3 * WINDOW].fill(30.0);
        v.extend([99.0; 40]); // partial trailing window: dropped
        assert_eq!(windowed(&v, |w| percentile(w, 0.9)), Ok(10.0));
        let mean = |w: &[f64]| Ok(w.iter().sum::<f64>() / w.len() as f64);
        assert_eq!(windowed(&v, mean), Ok(10.0));
        let short = vec![1.0; WINDOW * MIN_WINDOWS - 1];
        assert_eq!(windowed(&short, mean), Err(TooFewSamples { have: 299, need: 300 }));
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[7.0]), 0.0);
    }
}
