//! The one reporting rule for timings: a median, plus the highest
//! percentile of a fixed ladder that still has at least ten samples
//! beyond it, with the sample count. Below forty samples only the
//! median is reported, because any percentile would have too few
//! samples above it to be a tail.

/// Percentiles considered for the tail, highest first, in tenths of a
/// percent so ranks come out of integer arithmetic.
const TAIL_LADDER: [usize; 5] = [999, 990, 950, 900, 750];
/// Samples that must lie strictly beyond a reported percentile.
const TAIL_BEYOND: usize = 10;
/// Fewest samples for which a tail percentile is reported.
const TAIL_MIN_SAMPLES: usize = 40;

/// Median and tail of one set of samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    /// `(percentile, value)`, present from [`TAIL_MIN_SAMPLES`] samples on.
    pub tail: Option<(f64, f64)>,
}

/// Summarize `samples` (any order). Empty input gives `n = 0` and a
/// median of 0.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Summary {
        n,
        median: median_sorted(&sorted),
        tail: tail_sorted(&sorted),
    }
}

/// Median of `samples` (any order); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// Nearest-rank percentile of `samples` (any order), `per_mille` in
/// tenths of a percent; 0 for no samples.
pub fn percentile(samples: &[f64], per_mille: usize) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    nearest_rank(&sorted, per_mille).1
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of sorted samples, `per_mille` in tenths of a
/// percent: the smallest sample with at least that share of the samples
/// at or below it. Returns the 1-based rank and the value.
fn nearest_rank(sorted: &[f64], per_mille: usize) -> (usize, f64) {
    let n = sorted.len();
    let rank = (per_mille * n).div_ceil(1000).clamp(1, n);
    (rank, sorted[rank - 1])
}

fn tail_sorted(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n < TAIL_MIN_SAMPLES {
        return None;
    }
    TAIL_LADDER.iter().find_map(|&p| {
        let (rank, value) = nearest_rank(sorted, p);
        (n - rank >= TAIL_BEYOND).then_some((p as f64 / 10.0, value))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so summarize must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn below_forty_samples_only_the_median_is_reported() {
        let s = summarize(&ramp(39));
        assert_eq!(s.n, 39);
        assert_eq!(s.median, 20.0);
        assert_eq!(s.tail, None);
    }

    #[test]
    fn forty_samples_report_p75_with_ten_beyond() {
        // p90 would be rank 36 with only 4 samples beyond it.
        let s = summarize(&ramp(40));
        assert_eq!(s.median, 20.5);
        assert_eq!(s.tail, Some((75.0, 30.0)));
    }

    #[test]
    fn the_ladder_climbs_as_samples_grow() {
        assert_eq!(summarize(&ramp(100)).tail, Some((90.0, 90.0)));
        assert_eq!(summarize(&ramp(199)).tail, Some((90.0, 180.0)));
        assert_eq!(summarize(&ramp(200)).tail, Some((95.0, 190.0)));
        assert_eq!(summarize(&ramp(1000)).tail, Some((99.0, 990.0)));
        assert_eq!(summarize(&ramp(10_000)).tail, Some((99.9, 9990.0)));
    }

    #[test]
    fn the_tail_is_the_sample_at_its_rank_not_an_interpolation() {
        let mut samples = vec![1.0; 90];
        samples.extend([50.0; 10]);
        samples.push(7.0);
        // 101 samples: p90 is rank 91 (the 7.0), with 10 samples beyond.
        let s = summarize(&samples);
        assert_eq!(s.tail, Some((90.0, 7.0)));
        assert_eq!(s.median, 1.0);
    }

    #[test]
    fn empty_input_is_a_zero_median() {
        assert_eq!(summarize(&[]).median, 0.0);
        assert_eq!(summarize(&[]).n, 0);
    }
}
