//! Order statistics over samples.

/// Nearest-rank percentile of `xs` (`q` in 0..=100); `xs` need not be sorted.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples strictly above the `q`-th percentile: a percentile is reported
/// only when at least ten samples lie beyond it.
pub fn beyond(xs: &[f64], q: f64) -> usize {
    let p = percentile(xs, q);
    xs.iter().filter(|&&x| x > p).count()
}

/// Percentile `q`, with a warning on stderr when fewer than ten samples
/// lie beyond it (the run is then too short for that percentile).
pub fn supported_percentile(name: &str, xs: &[f64], q: f64) -> f64 {
    let n = beyond(xs, q);
    if n < 10 {
        eprintln!(
            "perfbench: warning: {name}: only {n} of {} samples lie beyond p{q}; lengthen the run",
            xs.len()
        );
    }
    percentile(xs, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_medians() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(median(&xs), 50.5);
        assert_eq!(beyond(&xs, 90.0), 10);
    }
}
