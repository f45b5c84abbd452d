//! Order statistics shared by every workload.

use std::time::Duration;

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile (`0.0..=1.0`) of an ascending slice, interpolating
/// linearly between the two closest ranks. An empty slice yields `0.0`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// The `q`-quantile of unordered values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// The median of unordered values.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Tail percentiles are taken per window of this many consecutive
/// operations, and the median over windows reported.
pub const WINDOW: usize = 200;

/// The median over windows of each window's `q`-quantile. Windows are
/// runs of `per` consecutive samples in time order (a last run shorter
/// than `per` joins the one before); `at_s[i]` is when sample `i` was
/// taken. The host's brief stalls inflate the tail of the windows they
/// fall in and the median over windows sets them aside, while a
/// slowdown of the program that recurs in most windows still shows.
pub fn windowed_quantile(at_s: &[f64], values: &[f64], per: usize, q: f64) -> f64 {
    let mut order: Vec<usize> = (0..at_s.len().min(values.len())).collect();
    order.sort_by(|&a, &b| at_s[a].total_cmp(&at_s[b]));
    let per_window: Vec<f64> = windows(&order, per)
        .into_iter()
        .map(|w| quantile(&w.iter().map(|&i| values[i]).collect::<Vec<_>>(), q))
        .collect();
    median(&per_window)
}

/// `items` cut into runs of `per` consecutive items; a last run shorter
/// than `per` joins the one before.
pub fn windows<T>(items: &[T], per: usize) -> Vec<&[T]> {
    let per = per.max(1);
    let mut out: Vec<&[T]> = items.chunks(per).collect();
    if out.len() > 1 && out.last().is_some_and(|w| w.len() < per) {
        out.pop();
        let last = out.len() - 1;
        out[last] = &items[last * per..];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.99) - 3.97).abs() < 1e-12);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((quantile(&hundred, 0.99) - 99.01).abs() < 1e-9);
    }

    #[test]
    fn windowed_quantile_takes_the_median_over_windows() {
        // Three windows of 100 samples, handed over out of time order;
        // the middle window holds a stall.
        let at: Vec<f64> = (0..300).rev().map(|i| f64::from(i) / 100.0).collect();
        let v: Vec<f64> = (0..300)
            .rev()
            .map(|i| {
                if (100..200).contains(&i) {
                    1000.0
                } else {
                    f64::from(i % 100)
                }
            })
            .collect();
        assert!((windowed_quantile(&at, &v, 100, 0.99) - 98.01).abs() < 1e-9);
        assert_eq!(quantile(&v, 0.99), 1000.0);
        // A stall in every window shows; in one window in ten it does not.
        let v: Vec<f64> = (0..300)
            .map(|i| if i % 100 == 0 { 1000.0 } else { 1.0 })
            .collect();
        assert!(windowed_quantile(&at, &v, 100, 0.99) > 10.0);
        assert_eq!(windowed_quantile(&at, &v, 10, 0.99), 1.0);
        // A short last window joins the one before: 250 samples in
        // windows of 100 are two windows, the second holding 150.
        let v: Vec<f64> = (0..250).map(|i| f64::from(1 + i / 100)).collect();
        let at: Vec<f64> = (0..250).map(f64::from).collect();
        assert_eq!(windowed_quantile(&at, &v, 100, 0.5), 1.5);
        assert_eq!(windowed_quantile(&[0.5], &[5.0], 100, 0.5), 5.0);
        assert_eq!(windowed_quantile(&[], &[], 100, 0.5), 0.0);
    }

    #[test]
    fn windows_join_a_short_tail_to_the_one_before() {
        let v: Vec<u32> = (0..7).collect();
        assert_eq!(windows(&v, 3), vec![&v[0..3], &v[3..7]]);
        assert_eq!(windows(&v, 7), vec![&v[..]]);
        assert_eq!(windows(&v, 10), vec![&v[..]]);
        assert_eq!(windows(&v[..6], 3), vec![&v[0..3], &v[3..6]]);
        assert!(windows::<u32>(&[], 3).is_empty());
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(quantile(&[5.0, 5.0], 0.99), 5.0);
    }
}
