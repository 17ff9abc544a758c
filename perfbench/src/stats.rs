//! Order statistics the benchmark reports.

/// Median (mean of the two middle values for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percentile, value)`: the nearest-rank value with exactly ten
/// larger samples. With ten or fewer samples no percentile qualifies and
/// the maximum is reported as the 100th.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    if n == 0 {
        return (100.0, 0.0);
    }
    if n <= 10 {
        return (100.0, s[n - 1]);
    }
    let idx = n - 11;
    (100.0 * (idx + 1) as f64 / n as f64, s[idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, x) = tail(&v);
        assert_eq!(x, 90.0);
        assert_eq!(v.iter().filter(|&&y| y > x).count(), 10);
        assert!((p - 90.0).abs() < 1e-9);
        assert_eq!(tail(&[3.0, 1.0]), (100.0, 3.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
