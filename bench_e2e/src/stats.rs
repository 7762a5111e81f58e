//! Percentiles, quartiles and the regression rule `--compare` applies.

use crate::spec::Better;

/// Nearest-rank percentile of an ascending sample. Refuses (returns `None`)
/// unless at least ten samples lie beyond the percentile — p50 needs 20
/// samples and p99 needs 1000 — so a reported tail is never one outlier.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    // `n·(1−q) ≥ 10`, with a little slack for q's binary representation.
    if n == 0 || (n as f64) * (1.0 - q) < 10.0 - 1e-9 {
        return None;
    }
    let rank = ((q * n as f64) - 1e-9).ceil().max(1.0) as usize;
    Some(sorted[rank.min(n) - 1])
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them; a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    Unchanged,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    pub base_median: f64,
    pub cand_median: f64,
    /// Signed change of the candidate's median as a share of the base
    /// median; positive means worse in the metric's direction.
    pub worse_by: f64,
    pub base_spread: f64,
    pub cand_spread: f64,
    pub verdict: Verdict,
}

/// Applies a metric's bound to two sets of runs of one workload.
///
/// * `regressed` — the candidate median is worse than the base median by
///   more than `bound` of the base median;
/// * `unresolved` — either side's spread exceeds the bound, unless every
///   candidate run beats every base run;
/// * `improved` — better by more than the base's own interquartile
///   distance, winning at least nine tenths of the run pairs (ties count
///   for neither side);
/// * `unchanged` — otherwise.
pub fn compare(base: &[f64], cand: &[f64], better: Better, bound: f64) -> Comparison {
    let base_median = median(base);
    let cand_median = median(cand);
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let worse_by = match better {
        Better::Lower => (cand_median - base_median) / base_median.abs(),
        Better::Higher => (base_median - cand_median) / base_median.abs(),
    };
    let base_spread = spread(base);
    let cand_spread = spread(cand);
    let all_beat = cand.iter().all(|&c| base.iter().all(|&b| beats(c, b)));
    let (q1, q3) = quartiles(base);
    let pairs = base.len().min(cand.len());
    let wins = base
        .iter()
        .zip(cand)
        .filter(|(b, c)| beats(**c, **b))
        .count();
    let verdict = if base_spread > bound || cand_spread > bound {
        if all_beat && !base.is_empty() && !cand.is_empty() {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < 0.0
        && (cand_median - base_median).abs() > q3 - q1
        && pairs > 0
        && wins * 10 >= pairs * 9
    {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    Comparison {
        base_median,
        cand_median,
        worse_by,
        base_spread,
        cand_spread,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles_refuse_thin_tails() {
        assert_eq!(percentile(&ramp(999), 0.99), None, "p99 needs 1000 samples");
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(1001), 0.99), Some(991.0));
        assert_eq!(percentile(&ramp(19), 0.50), None);
        assert_eq!(percentile(&ramp(20), 0.50), Some(10.0));
        assert_eq!(percentile(&ramp(21), 0.50), Some(11.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(median(&ramp(10)), 5.5);
        assert!((spread(&ramp(10)) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn the_bound_is_a_share_of_the_base_median() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // 9% slower with a 10% bound: inside the bound, not an improvement.
        let c = compare(&base, &base.map(|x| x * 1.09), Better::Lower, 0.10);
        assert_eq!(c.verdict, Verdict::Unchanged);
        assert!((c.worse_by - 0.09).abs() < 1e-9);
        // 11% slower: regressed.
        let c = compare(&base, &base.map(|x| x * 1.11), Better::Lower, 0.10);
        assert_eq!(c.verdict, Verdict::Regressed);
        // Higher-is-better: a 11% throughput drop regresses, a 5% rise that
        // wins every pair and clears the base spread improves.
        let c = compare(&base, &base.map(|x| x * 0.89), Better::Higher, 0.10);
        assert_eq!(c.verdict, Verdict::Regressed);
        let c = compare(&base, &base.map(|x| x * 1.05), Better::Higher, 0.10);
        assert_eq!(c.verdict, Verdict::Improved);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let base = [100.0, 130.0, 80.0, 120.0, 90.0];
        let c = compare(&base, &[100.0, 101.0, 99.0], Better::Lower, 0.10);
        assert_eq!(c.verdict, Verdict::Unresolved);
        let c = compare(&base, &[50.0, 51.0, 49.0], Better::Lower, 0.10);
        assert_eq!(c.verdict, Verdict::Improved);
    }
}
