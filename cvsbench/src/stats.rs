//! Order statistics used by the benchmark and its agreement tooling.

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`, or `None` when
/// fewer than ten samples lie beyond it: a tail percentile resting on a
/// handful of samples is a guess, not a measurement.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    if n - rank < 10 && p < 100.0 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median of each key's samples, in key order: sample `i` belongs to
/// key `keys[i]`; keys without samples are skipped. A run replays every
/// change several times, spread over the run, so interference on a
/// shared host, which comes in bursts of a second or two, touches a
/// minority of each change's replays and its median ignores them.
pub fn medians_by_key(keys: &[usize], values: &[f64]) -> Vec<f64> {
    let mut by_key: Vec<Vec<f64>> = vec![Vec::new(); keys.iter().max().map_or(0, |&k| k + 1)];
    for (&k, &v) in keys.iter().zip(values) {
        by_key[k].push(v);
    }
    by_key
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| median(s))
        .collect()
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so a spread printed here matches the one an external checker computes.
/// `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// a metric's regression bound is judged against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        // p95 of 100 samples has only five beyond it.
        assert_eq!(percentile(&v, 95.0), None);
        let w: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&w, 95.0), Some(190.0));
        assert_eq!(percentile(&w, 99.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_is_order_independent() {
        let v: Vec<f64> = (0..40).map(|i| ((i * 17) % 40) as f64).collect();
        assert_eq!(percentile(&v, 50.0), Some(19.0));
    }

    #[test]
    fn per_key_medians_ignore_a_disturbed_minority_of_replays() {
        // Five replays of 200 keys; key k costs k. The second replay ran
        // through a burst that slowed everything fivefold.
        let keys: Vec<usize> = (0..1000).map(|i| i % 200).collect();
        let mut v: Vec<f64> = keys.iter().map(|&k| k as f64).collect();
        for x in &mut v[200..400] {
            *x *= 5.0;
        }
        let medians = medians_by_key(&keys, &v);
        assert_eq!(medians.len(), 200);
        assert_eq!(percentile(&medians, 95.0), Some(189.0));
        assert_eq!(percentile(&medians, 50.0), Some(99.0));
        assert_eq!(percentile(&v, 95.0), Some(745.0));
        // Keys with no samples are skipped.
        assert_eq!(medians_by_key(&[3, 3, 0], &[1.0, 2.0, 7.0]), vec![7.0, 1.5]);
        assert!(medians_by_key(&[], &[]).is_empty());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }
}
