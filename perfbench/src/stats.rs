//! Order statistics for every reported timing, and the simulated-behaviour
//! digest.

/// The median of `xs` (the mean of the two middle values for an even
/// count); `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The median of each position across equally long rows: for the
/// repetitions of a fixed list of runs, each run's median time.
pub fn per_index_median(rows: &[Vec<f64>]) -> Vec<f64> {
    let n = rows.first().map_or(0, Vec::len);
    (0..n)
        .map(|i| median(&rows.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect()
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// A tail timing: the highest percentile that still has at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// Its percentile: the share of samples at or below its rank, in %.
    pub percentile: f64,
    /// Samples ranked beyond it.
    pub beyond: usize,
    /// Samples in all.
    pub n: usize,
}

/// Samples a tail percentile must have beyond it to count as measured.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `xs` under the [`TAIL_BEYOND`] rule, or `None` when there are
/// too few samples for any percentile to qualify.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - 1 - TAIL_BEYOND;
    Some(Tail {
        value: sorted(xs)[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        beyond: TAIL_BEYOND,
        n,
    })
}

/// The tail value to report, with a note on how it was chosen: the
/// [`tail`] rule where it applies, else the maximum of the few samples.
pub fn tail_or_max(xs: &[f64]) -> (f64, String) {
    match tail(xs) {
        Some(t) => (
            t.value,
            format!("p{:.2} of n={}, {} beyond", t.percentile, t.n, t.beyond),
        ),
        None => (
            sorted(xs).last().copied().unwrap_or(0.0),
            format!(
                "max of n={}; no percentile has {TAIL_BEYOND} beyond",
                xs.len()
            ),
        ),
    }
}

/// Folds per-run trace hashes, in run order, into one digest: equal digests
/// mean every run simulated the same event stream.
pub fn digest(hashes: &[u64]) -> u64 {
    let bytes: Vec<u8> = hashes.iter().flat_map(|h| h.to_le_bytes()).collect();
    flash_obs::fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn per_index_median_takes_each_runs_median() {
        let reps = vec![vec![1.0, 10.0], vec![3.0, 30.0], vec![2.0, 99.0]];
        assert_eq!(per_index_median(&reps), vec![2.0, 30.0]);
        assert!(per_index_median(&[]).is_empty());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let (max, note) = tail_or_max(&ten);
        assert_eq!(max, 10.0);
        assert!(note.contains("max of n=10"), "{note}");

        // Eleven samples: only the minimum has ten beyond it.
        let eleven: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        let t = tail(&eleven).expect("eleven samples qualify");
        assert_eq!((t.value, t.beyond, t.n), (1.0, 10, 11));

        // A thousand samples: the 990th value, p99.0, exactly ten beyond.
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&many).expect("qualifies");
        assert_eq!(t.value, 990.0);
        assert!((t.percentile - 99.0).abs() < 1e-9);
        assert_eq!(many.iter().filter(|&&x| x > t.value).count(), t.beyond);
        let (_, note) = tail_or_max(&many);
        assert_eq!(note, "p99.00 of n=1000, 10 beyond");
    }

    #[test]
    fn digest_depends_on_order_and_content() {
        assert_eq!(digest(&[1, 2]), digest(&[1, 2]));
        assert_ne!(digest(&[1, 2]), digest(&[2, 1]));
        assert_ne!(digest(&[1, 2]), digest(&[1, 3]));
    }
}
