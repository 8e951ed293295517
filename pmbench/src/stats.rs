//! Order statistics over host-time samples.

/// The fewest samples [`p90`] accepts: at least ten must lie beyond it.
pub const MIN_SAMPLES: usize = 100;

/// Median of `xs` (mean of the middle pair for an even count), or 0 for
/// no samples.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank 90th percentile and the number of samples ranked beyond
/// it. Refuses fewer than [`MIN_SAMPLES`] samples, below which fewer
/// than ten would lie beyond the percentile.
pub fn p90(xs: &[f64]) -> Result<(f64, usize), String> {
    if xs.len() < MIN_SAMPLES {
        return Err(format!(
            "p90 needs at least {MIN_SAMPLES} samples, got {}",
            xs.len()
        ));
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() * 9).div_ceil(10);
    Ok((v[rank - 1], v.len() - rank))
}

/// Passes needed so that the faster halves of `points` points' calls
/// hold at least [`MIN_SAMPLES`] samples.
pub fn min_passes(points: usize) -> usize {
    2 * MIN_SAMPLES.div_ceil(points) - 1
}

/// Sorts one point's call times and returns the faster half (the median
/// call included). A call slowed by another tenant of the host lands in
/// the slower half, so it moves the percentiles only when it hits most
/// of a point's calls.
pub fn faster_half(calls: &mut [f64]) -> &[f64] {
    calls.sort_by(f64::total_cmp);
    &calls[..calls.len().div_ceil(2)]
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_leaves_at_least_ten_samples_beyond_it() {
        for n in MIN_SAMPLES..400 {
            let xs: Vec<f64> = (0..n).rev().map(|i| i as f64).collect();
            let (v, beyond) = p90(&xs).expect("enough samples");
            assert!(beyond >= 10, "n={n}: only {beyond} beyond");
            assert_eq!(xs.iter().filter(|&&x| x > v).count(), beyond);
        }
    }

    #[test]
    fn p90_refuses_fewer_than_100_samples() {
        let xs = vec![1.0; MIN_SAMPLES - 1];
        assert!(p90(&xs).is_err());
        assert!(p90(&[]).is_err());
    }

    #[test]
    fn min_passes_keep_100_samples_in_the_faster_halves() {
        for points in 1..300 {
            let passes = min_passes(points);
            let mut calls = vec![1.0; passes];
            assert!(
                points * faster_half(&mut calls).len() >= MIN_SAMPLES,
                "{points}"
            );
        }
    }

    #[test]
    fn faster_half_drops_the_slow_calls() {
        let mut calls = [5.0, 1.0, 9.0, 2.0, 3.0];
        assert_eq!(faster_half(&mut calls), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
