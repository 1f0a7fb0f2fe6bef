//! Order statistics for the reported metrics.

/// The median (mean of the two middle values for an even count); 0 for an
/// empty sample so a metric that does not apply reads 0.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile by linear interpolation between closest ranks.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// How far into the better end of the per-block values the reported one
/// lies: the first decile of times, the ninth of rates.
pub const QUIET_Q: f64 = 0.10;

/// The value of the blocks that interference did not reach. On a shared
/// box a neighbour only ever makes a block slower; this one runs at one of
/// two speeds a quarter apart, for seconds at a time, in shares that differ
/// from run to run. The median of blocks therefore moves between two runs of
/// one binary, while the fast level repeats as long as a tenth of the blocks
/// saw it.
pub fn quiet(values: &[f64], lower_is_better: bool) -> f64 {
    let q = if lower_is_better {
        QUIET_Q
    } else {
        1.0 - QUIET_Q
    };
    quantile(values, q)
}

/// The distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) — the spread the benchmark's bounds are judged by.
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    let at = |k: usize| {
        // Exclusive method: position k(n+1)/4, 1-based, clamped to the data.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    (at(3) - at(1)) / med
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 0.0), 0.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
    }

    #[test]
    fn quiet_ignores_the_disturbed_blocks() {
        // Eight blocks, five of them slowed by a neighbour.
        let times = [2.0, 3.1, 2.0, 3.5, 3.1, 4.0, 2.1, 2.9];
        assert!(quiet(&times, true) <= 2.05);
        let rates: Vec<f64> = times.iter().map(|t| 1.0 / t).collect();
        assert!(quiet(&rates, false) >= 1.0 / 2.05);
    }

    #[test]
    fn spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }
}
