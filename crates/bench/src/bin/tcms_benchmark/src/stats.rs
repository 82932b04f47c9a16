//! The metric math: medians, quartiles, the tail rule, the stage-sum
//! residual and failure accounting. Pure functions, unit-tested below.

/// Median of a sample (mean of the two middle values for an even
/// count), as Python's `statistics.median`. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartile by Python's `statistics.quantiles(values,
/// n=4)` (the default "exclusive" method). A single value is its own
/// quartiles; `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let ld = data.len();
    match ld {
        0 => None,
        1 => Some((data[0], data[0])),
        _ => {
            let m = ld + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                // `i * m - j * 4` may be negative after the clamp.
                #[allow(clippy::cast_precision_loss, clippy::cast_possible_wrap)]
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            Some((cut(1), cut(3)))
        }
    }
}

/// Quartile spread as a share of the median: `(q3 - q1) / median`.
/// Zero for a constant sample; `None` when empty or the median is 0.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let med = median(values)?;
    let (q1, q3) = quartiles(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Candidate percentiles for a tail, highest last.
const TAIL_PERCENTILES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The highest candidate percentile that still has at least ten samples
/// beyond it, with its nearest-rank value: `(percentile, value)`.
/// `None` when `n <= 10` (no percentile has ten samples beyond it).
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    TAIL_PERCENTILES.iter().rev().find_map(|&p| {
        let rank = nearest_rank(data.len(), p)?;
        (data.len() - rank >= 10).then(|| (p, data[rank - 1]))
    })
}

/// The 1-based nearest rank `ceil(p/100 * n)` of percentile `p`.
fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    // The epsilon keeps float error from pushing an exact rank up one
    // (0.999 * 10000 is 9990.000000000002).
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
    Some(rank.clamp(1, n))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// How far the decomposed stages fall short of the undecomposed wall
/// time, in percent of it: `100 * (total - sum(stages)) / total`.
/// Positive means time the stages do not cover (glue, allocation);
/// negative means the decomposition costs more than the real call.
pub fn stage_residual_pct(total: f64, stages: &[f64]) -> f64 {
    if total == 0.0 {
        return 0.0;
    }
    100.0 * (total - stages.iter().sum::<f64>()) / total
}

/// What a request was supposed to return.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect<'a> {
    /// A report with exactly these bytes.
    Output(&'a str),
    /// The typed `malformed` error (a deliberately broken design).
    Malformed,
}

/// What a request returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Got<'a> {
    /// A successful report.
    Output(&'a str),
    /// A typed error: wire class and code.
    Error(&'a str, u16),
    /// No reply: a transport error or a lost or unparseable reply.
    Nothing,
}

/// The wire class and code of the typed malformed-input error.
const MALFORMED: (&str, u16) = ("malformed", 4);

/// Whether a reply is correct. Only the typed malformed error for a
/// design that is broken on purpose counts as a correct error; a wrong
/// byte, any other error, or no reply at all is a failure.
pub fn is_correct(expect: &Expect<'_>, got: &Got<'_>) -> bool {
    match (expect, got) {
        (Expect::Output(want), Got::Output(have)) => want == have,
        (Expect::Malformed, Got::Error(class, code)) => (*class, *code) == MALFORMED,
        _ => false,
    }
}

/// Attempted and failed operations of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Operations whose outcome was wrong.
    pub failed: u64,
}

impl Tally {
    /// Counts `n` operations with the same outcome.
    pub fn record(&mut self, n: u64, correct: bool) {
        self.attempted += n;
        if !correct {
            self.failed += n;
        }
    }

    /// Marks `n` already-counted operations as failed (a check made
    /// after the fact, such as a golden digest, found them wrong).
    pub fn fail(&mut self, n: u64) {
        self.failed = (self.failed + n).min(self.attempted);
    }

    /// `failed / attempted`; 0 before anything was attempted.
    pub fn fail_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        #[allow(clippy::cast_precision_loss)]
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&seq(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 3.75)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[5.0, 7.0]), Some((4.5, 7.5)));
        assert_eq!(quartiles(&[9.0]), Some((9.0, 9.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let spread = relative_spread(&seq(10)).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[2.0, 2.0, 2.0]), Some(0.0));
        assert_eq!(relative_spread(&[0.0, 0.0]), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // n <= 10: no percentile has ten samples beyond it.
        assert_eq!(tail(&seq(10)), None);
        assert_eq!(tail(&[]), None);
        // n = 20: p50 (rank 10) leaves 10 beyond; p90 leaves only 2.
        assert_eq!(tail(&seq(20)), Some((50.0, 10.0)));
        // n = 100: p90 (rank 90) leaves 10; p99 leaves 1.
        assert_eq!(tail(&seq(100)), Some((90.0, 90.0)));
        // n = 1000: p99 (rank 990) leaves 10.
        assert_eq!(tail(&seq(1000)), Some((99.0, 990.0)));
        // n = 999: p99 (rank 990) leaves 9, so the tail falls to p90.
        assert_eq!(tail(&seq(999)), Some((90.0, 900.0)));
        // n = 10000: p99.9 (rank 9990) leaves 10.
        assert_eq!(tail(&seq(10_000)), Some((99.9, 9990.0)));
    }

    #[test]
    fn stage_residual_is_the_uncovered_share() {
        assert!((stage_residual_pct(100.0, &[40.0, 55.0]) - 5.0).abs() < 1e-12);
        assert!((stage_residual_pct(100.0, &[60.0, 50.0]) + 10.0).abs() < 1e-12);
        assert!(stage_residual_pct(100.0, &[100.0]).abs() < 1e-12);
        assert!(stage_residual_pct(0.0, &[1.0]).abs() < 1e-12);
    }

    #[test]
    fn only_the_expected_typed_error_counts_as_correct() {
        let report = "total area: 14\n";
        assert!(is_correct(&Expect::Output(report), &Got::Output(report)));
        assert!(!is_correct(
            &Expect::Output(report),
            &Got::Output("total area: 15\n")
        ));
        assert!(is_correct(&Expect::Malformed, &Got::Error("malformed", 4)));
        // A typed error is wrong when the design was valid …
        assert!(!is_correct(
            &Expect::Output(report),
            &Got::Error("malformed", 4)
        ));
        // … or when it is not the malformed class.
        assert!(!is_correct(
            &Expect::Malformed,
            &Got::Error("internal", 500)
        ));
        assert!(!is_correct(&Expect::Malformed, &Got::Output(report)));
        assert!(!is_correct(&Expect::Output(report), &Got::Nothing));
        assert!(!is_correct(&Expect::Malformed, &Got::Nothing));
    }

    #[test]
    fn fail_rate_counts_expected_typed_errors_as_correct() {
        let mut tally = Tally::default();
        // 98 good reports, 2 broken designs answered `malformed`.
        tally.record(98, is_correct(&Expect::Output("r"), &Got::Output("r")));
        tally.record(
            2,
            is_correct(&Expect::Malformed, &Got::Error("malformed", 4)),
        );
        assert_eq!(
            tally,
            Tally {
                attempted: 100,
                failed: 0
            }
        );
        assert!(tally.fail_rate().abs() < f64::EPSILON);
        // One lost reply and one wrong byte.
        tally.record(1, is_correct(&Expect::Output("r"), &Got::Nothing));
        tally.record(1, is_correct(&Expect::Output("r"), &Got::Output("R")));
        assert_eq!(tally.failed, 2);
        assert!((tally.fail_rate() - 2.0 / 102.0).abs() < 1e-12);
        // A later check can fail operations already counted, never more
        // than were attempted.
        tally.fail(500);
        assert_eq!(tally.failed, tally.attempted);
        assert!(Tally::default().fail_rate().abs() < f64::EPSILON);
    }
}
