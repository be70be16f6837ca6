//! Order statistics over timing samples.

/// Samples a tail percentile must leave above it to count as a tail.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100) of `sorted` (ascending), with
/// the number of samples strictly beyond its rank.
pub fn percentile(sorted: &[f64], p: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let idx = rank.clamp(1, n) - 1;
    (sorted[idx], n - idx - 1)
}

/// Median of `values` (any order).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0).0
}

/// Geometric mean of positive `values`.
pub fn geometric_mean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    (logs / values.len().max(1) as f64).exp()
}

/// Summary of one timing series: median and a fixed tail percentile.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub p50: f64,
    pub pct: f64,
    pub value: f64,
    pub beyond: usize,
    pub samples: usize,
}

/// Median and the `pct` percentile of `samples`.
pub fn tail(samples: &[f64], pct: f64) -> Tail {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let (value, beyond) = percentile(&v, pct);
    Tail {
        p50: percentile(&v, 50.0).0,
        pct,
        value,
        beyond,
        samples: v.len(),
    }
}

/// Growth exponent `k` of `cost ∝ scale^k` through two points.
pub fn exponent(scale_a: f64, cost_a: f64, scale_b: f64, cost_b: f64) -> f64 {
    (cost_b / cost_a).ln() / (scale_b / scale_a).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), (50.0, 50));
        assert_eq!(percentile(&v, 99.0), (99.0, 1));
        assert_eq!(percentile(&v, 100.0), (100.0, 0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let t = tail(&(0..1000).map(f64::from).collect::<Vec<_>>(), 99.0);
        assert_eq!(t.beyond, MIN_BEYOND);
        let t = tail(&(0..999).map(f64::from).collect::<Vec<_>>(), 99.0);
        assert_eq!(t.beyond, 9);
    }

    #[test]
    fn exponent_of_a_power_law() {
        let k = exponent(1.0, 3.0, 2.0, 12.0);
        assert!((k - 2.0).abs() < 1e-12);
    }
}
