//! The quiet-slice estimator.
//!
//! On a shared 2-vCPU VM interference only ever makes a run slower, so a
//! whole-run mean measures the neighbours (PR 12 and PR 14 were rejected
//! for exactly that: 6–10 % drift between runs of identical code). Every
//! timed run is therefore cut into many equal-work slices and the
//! reported value is a *low quantile of the slice times*: the program's
//! own speed in the slices nobody else disturbed.

/// The share of the slices that counts as quiet: the best decile. One
/// constant for every workload, never derived from the data or the
/// commit. Times and latencies report their 10th percentile across
/// slices, throughput the mirrored 90th.
pub const QUIET: f64 = 0.10;

/// Linearly interpolated quantile (`q` in `0..=1`) of unsorted values —
/// the rule `numpy.quantile` calls "linear". Panics on an empty slice:
/// every caller has at least one slice by construction.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median, for set-up times and the A/A tables.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean, for combining the placements of a two-thread run:
/// the luck of memory placement is two-sided, so it wants averaging.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no values");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives (the "exclusive" rule) — the spread the driver computes.
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let at = |k: usize| -> f64 {
        // statistics.quantiles, method="exclusive": position k(n+1)/4.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(3) - at(1)) / median(&v)
}

/// Quantile `p` of one slice's latency samples, in the samples' unit.
///
/// Samples are whole nanoseconds, so an order statistic is a step
/// function: a 105 ns operation would report exactly `105` in every
/// slice of every run. The value is therefore interpolated inside the
/// 1 ns bin, treating the `c` samples equal to `v` as spread evenly over
/// `[v, v+1)` (the grouped-data quantile). Reorders `samples`.
pub fn sample_quantile(samples: &mut [u32], p: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let rank = p.clamp(0.0, 1.0) * samples.len() as f64;
    let idx = (rank as usize).min(samples.len() - 1);
    let (_, &mut v, _) = samples.select_nth_unstable(idx);
    let below = samples.iter().filter(|&&s| s < v).count();
    let equal = samples.iter().filter(|&&s| s == v).count();
    let within = ((rank - below as f64) / equal as f64).clamp(0.0, 1.0);
    v as f64 + within
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert!((quantile(&v, 0.1) - 1.4).abs() < 1e-12);
        assert!((quantile(&v, 0.25) - 2.0).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quiet_quantile_ignores_one_sided_noise() {
        // 100 slices at 10 ms; interference makes 40 of them slower by
        // up to 2x. The mean moves by 20 %, the quiet decile not at all.
        let clean = vec![10.0; 100];
        let mut noisy = clean.clone();
        for (i, s) in noisy.iter_mut().enumerate().take(40) {
            *s += 10.0 * (i as f64 / 40.0) + 0.5;
        }
        assert!(mean(&noisy) > 1.15 * mean(&clean));
        assert_eq!(quantile(&noisy, QUIET), quantile(&clean, QUIET));
    }

    #[test]
    fn iqr_share_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[3.0]), 0.0);
    }

    #[test]
    fn sample_quantile_interpolates_inside_the_bin() {
        // 10 samples: four 100s, six 101s. The median rank (5) falls one
        // sixth of the way into the 101 bin.
        let mut s = [101, 100, 101, 100, 101, 101, 100, 101, 100, 101];
        let p50 = sample_quantile(&mut s, 0.5);
        assert!((p50 - (101.0 + 1.0 / 6.0)).abs() < 1e-9, "{p50}");
        // Distinct samples: plain order statistic plus the bin offset.
        let mut d: Vec<u32> = (0..1000).collect();
        let p99 = sample_quantile(&mut d, 0.99);
        assert!((p99 - 990.0).abs() < 1e-9, "{p99}");
        let mut one = [42];
        assert!((42.0..=43.0).contains(&sample_quantile(&mut one, 0.99)));
    }
}
