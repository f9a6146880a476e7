//! The estimators: percentile rules over PLT samples, best-of-K over
//! repetition wall times, and the quartile spread the noise record uses.

/// The lower median of an ascending slice: always one of the samples,
/// so simulated medians repeat bit for bit.
pub fn p50(sorted: &[u64]) -> Option<u64> {
    sorted.get(sorted.len().checked_sub(1)? / 2).copied()
}

/// The tail of a PLT sample: the highest percentile that still has ten
/// samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile as a fraction: `1 − 10/n`.
    pub q: f64,
    /// The sample at that percentile.
    pub value: u64,
    /// Sample count.
    pub n: usize,
}

/// Applies the tail rule to an ascending slice: with `n` samples the
/// value is the one ranked `n − 10` (ten larger samples lie beyond it)
/// and the percentile is `1 − 10/n`. `None` for `n ≤ 10`, where no
/// sample has ten beyond it.
pub fn tail(sorted: &[u64]) -> Option<Tail> {
    let n = sorted.len();
    let idx = n.checked_sub(11)?;
    Some(Tail {
        q: 1.0 - 10.0 / n as f64,
        value: sorted[idx],
        n,
    })
}

/// Merges PLT samples into one ascending sample. A load that failed,
/// was shed, or timed out enters at `timeout_us`.
pub fn plt_sample(loads: impl Iterator<Item = Option<u64>>, timeout_us: u64) -> Vec<u64> {
    let mut out: Vec<u64> = loads.map(|plt| plt.unwrap_or(timeout_us)).collect();
    out.sort_unstable();
    out
}

/// Index of the fastest repetition. Every repetition does identical
/// work, so whatever a repetition takes above the minimum is
/// interference from outside the program.
pub fn best_of(walls_s: &[f64]) -> Option<usize> {
    walls_s
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
}

/// Median of a float sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The lower quartile of a float sample: the value a quarter of the way
/// up the sorted sample, interpolated between its neighbours.
pub fn lower_quartile(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = (v.len().checked_sub(1)?) as f64 / 4.0;
    let (lo, share) = (at as usize, at.fract());
    let hi = (lo + 1).min(v.len() - 1);
    Some(v[lo] + (v[hi] - v[lo]) * share)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method), which is what the driver uses.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        let sample = |n: u64| (1..=n).collect::<Vec<u64>>();
        assert_eq!(tail(&sample(9)), None);
        assert_eq!(tail(&sample(10)), None);
        // n = 11: only the smallest sample has ten beyond it.
        let t = tail(&sample(11)).unwrap();
        assert_eq!((t.value, t.n), (1, 11));
        assert!((t.q - 1.0 / 11.0).abs() < 1e-12);
        // n = 2400: rank 2390, the 99.58th percentile.
        let t = tail(&sample(2400)).unwrap();
        assert_eq!(t.value, 2390);
        assert!((t.q - (1.0 - 10.0 / 2400.0)).abs() < 1e-12);
        assert_eq!(sample(2400).iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn p50_is_a_sample() {
        assert_eq!(p50(&[]), None);
        assert_eq!(p50(&[7]), Some(7));
        assert_eq!(p50(&[1, 2, 3, 4]), Some(2));
        assert_eq!(p50(&[1, 2, 3, 4, 5]), Some(3));
    }

    #[test]
    fn failed_loads_enter_at_the_timeout() {
        let loads = [Some(900), None, Some(100), None];
        assert_eq!(
            plt_sample(loads.into_iter(), 8_000),
            vec![100, 900, 8_000, 8_000]
        );
    }

    #[test]
    fn best_of_picks_the_minimum() {
        assert_eq!(best_of(&[]), None);
        assert_eq!(best_of(&[2.1, 1.9, 2.4, 1.95]), Some(1));
        // The first of equal minima wins, so the choice is stable.
        assert_eq!(best_of(&[1.5, 1.5]), Some(0));
    }

    #[test]
    fn lower_quartile_ignores_the_slow_three_quarters() {
        assert_eq!(lower_quartile(&[]), None);
        assert_eq!(lower_quartile(&[3.0]), Some(3.0));
        // Five samples: the second smallest.
        assert_eq!(lower_quartile(&[9.0, 1.0, 50.0, 2.0, 7.0]), Some(2.0));
        // Six: a quarter of the way from the second to the third.
        assert_eq!(lower_quartile(&[1.0, 2.0, 6.0, 8.0, 9.0, 9.5]), Some(3.0));
        // Stalls in three of four repetitions of a lap leave it alone.
        assert_eq!(
            lower_quartile(&[10.0, 10.0, 250.0, 90.0, 10.0, 31.0, 47.0, 300.0, 120.0]),
            Some(10.0)
        );
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        assert_eq!(
            quartile_spread(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some(10.5 / 4.0)
        );
        assert_eq!(quartiles(&[3.0]), None);
    }
}
