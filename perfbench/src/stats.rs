//! The benchmark's own statistics: medians, nearest-rank percentiles with
//! the sample-support rule, geometric means and outcome shares.

/// Percentiles a latency report may claim, lowest first, in per mille.
const PERCENTILE_LADDER: [usize; 4] = [500, 900, 990, 999];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_SAMPLES_BEYOND: usize = 10;

/// Median of `values`; the mean of the two middle values for an even count.
/// Returns `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it. Returns `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest percentile of the ladder with at least
/// [`MIN_SAMPLES_BEYOND`] samples beyond its nearest rank, for `n` samples.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .rfind(|&per_mille| n - (per_mille * n).div_ceil(1000) >= MIN_SAMPLES_BEYOND)
        .map(|per_mille| per_mille as f64 / 10.0)
}

/// Geometric mean of strictly positive values; `None` if the slice is
/// empty or holds a value that is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v.is_nan() || v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// How one attempted request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A verified layout whose objective is proven optimal.
    Optimal,
    /// A verified layout without an optimality proof (budget cut).
    Degraded,
    /// No layout: the request's budget ran out first.
    NoLayout,
    /// The service refused the submission.
    Rejected,
    /// The program returned an error, or its output failed a check.
    Wrong,
}

/// Outcome counts over every attempted request; nothing is dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests attempted, whatever their outcome.
    pub attempted: u64,
    /// Proven-optimal verified layouts.
    pub optimal: u64,
    /// Verified layouts without a proof.
    pub degraded: u64,
    /// Budget ran out before a layout.
    pub no_layout: u64,
    /// Refused at submission.
    pub rejected: u64,
    /// Errors and check violations.
    pub wrong: u64,
}

impl Tally {
    /// Counts one attempted request.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Optimal => self.optimal += 1,
            Outcome::Degraded => self.degraded += 1,
            Outcome::NoLayout => self.no_layout += 1,
            Outcome::Rejected => self.rejected += 1,
            Outcome::Wrong => self.wrong += 1,
        }
    }

    /// Requests without a verified layout.
    pub fn without_layout(&self) -> u64 {
        self.no_layout + self.rejected + self.wrong
    }

    /// Operations that failed: refused submissions, errors and wrong
    /// outputs. A budget running out is a measured outcome, not a failure
    /// of the operation.
    pub fn failed(&self) -> u64 {
        self.rejected + self.wrong
    }

    /// Requests without a verified layout over requests attempted.
    pub fn fail_share(&self) -> f64 {
        share(self.without_layout(), self.attempted)
    }

    /// Proven-optimal requests over requests attempted.
    pub fn optimal_share(&self) -> f64 {
        share(self.optimal, self.attempted)
    }
}

/// `count / attempted`, or 0 when nothing was attempted.
fn share(count: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        count as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), Some(50.0));
        assert_eq!(percentile(&values, 90.0), Some(90.0));
        assert_eq!(percentile(&values, 99.0), Some(99.0));
        assert_eq!(percentile(&values, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Four samples: p90 is the largest.
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 90.0), Some(4.0));
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(150), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn geometric_mean() {
        let g = geomean(&[30.0, 29_000.0]).expect("positive values");
        assert!((g - (30.0f64 * 29_000.0).sqrt()).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0]).expect("positive") - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]).expect("positive") - 5.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
    }

    #[test]
    fn shares_count_every_attempt() {
        let mut t = Tally::default();
        for outcome in [
            Outcome::Optimal,
            Outcome::Optimal,
            Outcome::Degraded,
            Outcome::NoLayout,
            Outcome::Rejected,
            Outcome::Wrong,
        ] {
            t.record(outcome);
        }
        assert_eq!(t.attempted, 6);
        // Budget, refusal and wrong output all lack a verified layout.
        assert_eq!(t.without_layout(), 3);
        assert!((t.fail_share() - 0.5).abs() < 1e-12);
        assert!((t.optimal_share() - 2.0 / 6.0).abs() < 1e-12);
        // A budget running out is not an operation failure.
        assert_eq!(t.failed(), 2);
    }

    #[test]
    fn rejected_requests_are_not_dropped() {
        let mut t = Tally::default();
        t.record(Outcome::Optimal);
        t.record(Outcome::Rejected);
        assert!((t.optimal_share() - 0.5).abs() < 1e-12);
        assert!((t.fail_share() - 0.5).abs() < 1e-12);
        assert_eq!(share(0, 0), 0.0);
    }
}
