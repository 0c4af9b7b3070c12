//! Order statistics for latency samples and for the run-to-run spread.

/// The nearest-rank `p`-th percentile (`0 < p <= 1`) of `samples`, refusing
/// to report it unless at least `min_beyond` samples lie beyond it: a tail
/// percentile resting on a handful of samples is noise, not a measurement.
pub fn percentile(samples: &[f64], p: f64, min_beyond: usize) -> Result<f64, String> {
    assert!(p > 0.0 && p <= 1.0, "percentile {p} out of range");
    if samples.is_empty() {
        return Err("no samples".into());
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // 0 < p*n <= n
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let beyond = sorted.len() - rank;
    if beyond < min_beyond {
        return Err(format!(
            "p{:.0} of {} samples keeps {beyond} beyond it, {min_beyond} required",
            p * 100.0,
            sorted.len()
        ));
    }
    Ok(sorted[rank - 1])
}

/// The median (mean of the two middle samples when the count is even).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(values, n=4)` gives
/// (the "exclusive" method) — the spread the benchmark's bounds are judged
/// by.  Needs at least two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(&sorted).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p90_needs_thirty_samples_beyond_it() {
        assert_eq!(percentile(&ramp(300), 0.9, 30), Ok(270.0));
        assert_eq!(percentile(&ramp(300), 0.5, 30), Ok(150.0));
        let err = percentile(&ramp(299), 0.9, 30).unwrap_err();
        assert!(err.contains("29 beyond"), "{err}");
        assert!(percentile(&[], 0.5, 0).is_err());
    }

    #[test]
    fn percentile_is_order_independent() {
        let mut shuffled = ramp(100);
        shuffled.reverse();
        shuffled.swap(3, 77);
        assert_eq!(percentile(&shuffled, 0.9, 10), Ok(90.0));
        assert_eq!(percentile(&shuffled, 1.0, 0), Ok(100.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let spread = quartile_spread(&ramp(10));
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{spread}");
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let spread = quartile_spread(&[4.0, 1.0, 2.0]);
        assert!((spread - 1.5).abs() < 1e-12, "{spread}");
    }
}
