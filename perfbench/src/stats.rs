//! Order statistics over timing samples.

/// The `q`-quantile (0..=1) of `v` by nearest rank; `v` need not be sorted.
/// An empty sample yields `f64::NAN`.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The median of `v`.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 7] = [99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// The highest percentile of [`TAIL_PERCENTILES`] that leaves at least ten
/// samples beyond it, with its value. Returns `(percentile, value)`.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let n = v.len() as f64;
    let p = TAIL_PERCENTILES
        .iter()
        .copied()
        .find(|p| n * (100.0 - p) >= 1000.0)
        .unwrap_or(50.0);
    (p, quantile(v, p / 100.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v).0, 99.0);
        assert_eq!(tail(&[1.0, 2.0]).0, 50.0);
    }
}
