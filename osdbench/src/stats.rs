//! Order statistics shared by every workload and by the traced run.
//!
//! One implementation of each statistic, so no phase re-derives a
//! percentile by indexing (`latencies[len * 95 / 100]`) with its own
//! rounding rule.

/// Fewest samples that must lie strictly above a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// Median: the middle sample, or the mean of the two middle samples of an
/// even-length input. `None` on an empty input.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// A tail percentile and the sample it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The integer percentile reported (99 when the sample is large enough).
    pub pct: u32,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// Samples strictly above the value's rank.
    pub beyond: usize,
    /// Sample count.
    pub n: usize,
}

/// The highest integer percentile in 50..=99 whose nearest-rank value
/// still has at least [`TAIL_BEYOND`] samples ranked above it. `None` when
/// even the median has fewer (fewer than 20 samples).
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len();
    (50..=99u32).rev().find_map(|pct| {
        // Nearest rank, 1-based: ceil(pct * n / 100), at least 1.
        let rank = (pct as usize * n).div_ceil(100).max(1);
        let beyond = n.checked_sub(rank)?;
        (beyond >= TAIL_BEYOND).then(|| Tail {
            pct,
            value: s[rank - 1],
            beyond,
            n,
        })
    })
}

/// Quartiles exactly as Python's `statistics.quantiles(xs, n=4)` computes
/// them (the default "exclusive" method). `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// A ratio that keeps its base, so it is always printed with it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Denominator (the base).
    pub den: f64,
}

impl Ratio {
    /// `num / den`.
    pub fn new(num: f64, den: f64) -> Self {
        Ratio { num, den }
    }

    /// The quotient; 0 on an empty base, which the printed base makes
    /// visible.
    pub fn value(&self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }
}

impl std::fmt::Display for Ratio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6} ({}/{})", self.value(), self.num, self.den)
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        // Reversed, so every statistic has to sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_is_p99_once_ten_samples_lie_beyond() {
        let t = tail(&one_to(1000)).expect("large sample");
        assert_eq!((t.pct, t.value, t.beyond, t.n), (99, 990.0, 10, 1000));
        // 1001 samples: rank ceil(990.99) = 991 leaves exactly 10 above.
        let t = tail(&one_to(1001)).expect("large sample");
        assert_eq!((t.pct, t.value, t.beyond), (99, 991.0, 10));
    }

    #[test]
    fn tail_steps_down_on_small_samples() {
        // 500 samples: p99 leaves 5 above, p98 leaves exactly 10.
        let t = tail(&one_to(500)).expect("enough for p98");
        assert_eq!((t.pct, t.value, t.beyond), (98, 490.0, 10));
        // 20 samples: only the median leaves ten above.
        let t = tail(&one_to(20)).expect("enough for p50");
        assert_eq!((t.pct, t.value, t.beyond), (50, 10.0, 10));
        assert_eq!(tail(&one_to(19)), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&one_to(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&one_to(5)), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn ratio_keeps_its_base() {
        let r = Ratio::new(3.0, 12.0);
        assert_eq!(r.value(), 0.25);
        assert_eq!(r.to_string(), "0.250000 (3/12)");
        assert_eq!(Ratio::new(0.0, 0.0).value(), 0.0);
    }
}
