//! The benchmark's own arithmetic: percentiles under a minimum-sample
//! rule, self time by subtraction, and log-log slopes.

/// Samples a percentile must have *beyond* it before it is reported:
/// a p99 rests on at least 1000 samples, a p50 on at least 20.
pub const MIN_BEYOND: usize = 10;

/// Whether `n` samples are enough to report percentile `q` (0..=1):
/// at least [`MIN_BEYOND`] samples must lie above it.
pub fn enough_for(n: usize, q: f64) -> bool {
    n as f64 * (1.0 - q) >= MIN_BEYOND as f64 - 1e-9
}

/// Percentile `q` of `samples` by linear interpolation between the
/// two nearest ranks (the "type 7" rule), or `None` when
/// [`enough_for`] rejects the sample count.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !enough_for(samples.len(), q) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(interpolate(&sorted, q))
}

/// Percentile `q` of a non-empty sample set with no sample-count rule
/// (internal decisions and per-layer figures).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    interpolate(&sorted, q)
}

/// Median of a non-empty sample set, with no sample-count rule.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

fn interpolate(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Throughput of a closed loop from its per-call durations (ms): the
/// median, over consecutive groups of `group` calls, of calls per
/// second within the group. A slow stretch of the host moves one group,
/// not the figure. Calls that do not fill a last group are left out.
pub fn median_group_rate(durations_ms: &[f64], group: usize) -> f64 {
    let rates: Vec<f64> = durations_ms
        .chunks_exact(group.max(1))
        .map(|g| g.len() as f64 * 1e3 / g.iter().sum::<f64>())
        .collect();
    if rates.is_empty() {
        return durations_ms.len() as f64 * 1e3 / durations_ms.iter().sum::<f64>();
    }
    median(&rates)
}

/// Self time of a layer measured only as part of a larger call: the
/// call's time minus the separately timed parts it contains.
pub fn self_time(total: f64, parts: &[f64]) -> f64 {
    total - parts.iter().sum::<f64>()
}

/// Least-squares slope of `ys` against `xs`; `None` with fewer than two
/// points or when every `x` is equal.
pub fn slope(xs: &[f64], ys: &[f64]) -> Option<f64> {
    let n = xs.len().min(ys.len()) as f64;
    if n < 2.0 {
        return None;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    (sxx > 0.0).then(|| sxy / sxx)
}

/// Least-squares slope of `ln y` against `ln x`: 1.0 for time that is
/// exactly linear in `x`, 2.0 for quadratic. Non-positive points carry
/// no information on a log scale and are skipped.
pub fn loglog_slope(xs: &[f64], ys: &[f64]) -> Option<f64> {
    let (lx, ly): (Vec<f64>, Vec<f64>) = xs
        .iter()
        .zip(ys)
        .filter(|(&x, &y)| x > 0.0 && y > 0.0)
        .map(|(&x, &y)| (x.ln(), y.ln()))
        .unzip();
    slope(&lx, &ly)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let s: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(
            percentile(&s, 0.99),
            None,
            "999 samples leave 9.99 beyond p99"
        );
        let s: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(percentile(&s, 0.99).is_some());
        assert_eq!(percentile(&s[..19], 0.5), None);
        assert!(percentile(&s[..20], 0.5).is_some());
        assert!(enough_for(100, 0.9));
        assert!(!enough_for(99, 0.9));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(500.5));
        assert!((percentile(&s, 0.99).unwrap() - 990.01).abs() < 1e-9);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn group_rate_ignores_one_slow_stretch() {
        // 10 ms calls: 100 per second, whatever the grouping.
        let steady = vec![10.0; 60];
        assert!((median_group_rate(&steady, 6) - 100.0).abs() < 1e-9);
        // One group of ten runs at half speed; the median of the
        // per-group rates does not move, the overall mean would.
        let mut slowed = steady.clone();
        slowed[..6].iter_mut().for_each(|d| *d = 20.0);
        assert!((median_group_rate(&slowed, 6) - 100.0).abs() < 1e-9);
        // Too few calls for one group: the plain rate.
        assert!((median_group_rate(&steady[..4], 6) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn self_time_subtracts_the_timed_parts() {
        // A 10 ms call whose attributes, classify, list and evaluator
        // set-up took 0.5 + 0.1 + 0.3 + 0.6 ms leaves 8.5 ms placement.
        let placement = self_time(10.0, &[0.5, 0.1, 0.3, 0.6]);
        assert!((placement - 8.5).abs() < 1e-12);
        assert_eq!(self_time(2.0, &[]), 2.0);
        // Noise can push a tiny layer below zero; it is reported as is.
        assert!(self_time(1.0, &[0.7, 0.4]) < 0.0);
    }

    #[test]
    fn slope_of_exactly_linear_data_is_one() {
        // Time exactly proportional to the edge count at the paper's
        // four sizes.
        let e = [67_870.0, 103_000.0, 139_500.0, 171_900.0];
        let t: Vec<f64> = e.iter().map(|x| 3.1e-5 * x).collect();
        assert!((loglog_slope(&e, &t).unwrap() - 1.0).abs() < 1e-12);
        let quad: Vec<f64> = e.iter().map(|x| 1e-9 * x * x).collect();
        assert!((loglog_slope(&e, &quad).unwrap() - 2.0).abs() < 1e-12);
        let flat = [2.0; 4];
        assert!(loglog_slope(&e, &flat).unwrap().abs() < 1e-12);
    }

    #[test]
    fn slope_needs_two_distinct_positive_points() {
        assert_eq!(loglog_slope(&[1.0], &[1.0]), None);
        assert_eq!(loglog_slope(&[2.0, 2.0], &[1.0, 3.0]), None);
        assert_eq!(loglog_slope(&[1.0, 2.0], &[0.0, 3.0]), None);
    }
}
