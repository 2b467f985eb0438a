//! Order statistics for latency samples and repeated set-up times.

/// A tail percentile is reported only when at least this many samples lie
/// above it; with fewer, one outlier moves it.
pub const MIN_ABOVE: usize = 10;

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The nearest-rank `pct`-th percentile of `sorted` (ascending), refused
/// unless at least [`MIN_ABOVE`] samples rank above it.
pub fn percentile(sorted: &[f64], pct: f64) -> Result<f64, String> {
    assert!((0.0..=100.0).contains(&pct), "percentile {pct} out of range");
    let n = sorted.len();
    let rank = ((pct / 100.0) * n as f64).ceil().max(1.0) as usize;
    let above = n.saturating_sub(rank);
    if n == 0 || above < MIN_ABOVE {
        return Err(format!(
            "p{pct} of {n} samples leaves {above} above it; need at least {MIN_ABOVE}"
        ));
    }
    Ok(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 99.0), Ok(990.0));
        assert!(percentile(&samples[..999], 99.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
        assert_eq!(percentile(&samples, 50.0), Ok(500.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
