//! Order statistics and the log-log fit.

/// Median of `v` (mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples above it, and its
/// value: `None` with fewer than eleven samples.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    let n = v.len();
    if n < 11 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = n - 10;
    Some((100.0 * rank as f64 / n as f64, s[rank - 1]))
}

/// Least-squares slope of `ln y` against `ln x`. Points with
/// `x >= min_x` are used when at least three exist, else all points.
pub fn loglog_slope(points: &[(f64, f64)], min_x: f64) -> f64 {
    let large: Vec<_> = points.iter().filter(|p| p.0 >= min_x).copied().collect();
    let pts = if large.len() >= 3 {
        large
    } else {
        points.to_vec()
    };
    let xy: Vec<(f64, f64)> = pts
        .iter()
        .map(|&(x, y)| (x.max(1.0).ln(), y.max(1e-9).ln()))
        .collect();
    let n = xy.len() as f64;
    let mx = xy.iter().map(|p| p.0).sum::<f64>() / n;
    let my = xy.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = xy.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = xy.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}
