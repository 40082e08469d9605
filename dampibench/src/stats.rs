//! The benchmark's own arithmetic: medians and tail percentiles, the
//! interval union behind span self time, and metric-name validation.

/// Linearly interpolated percentile `p` (0..=100) of `xs`; 0 when empty.
#[must_use]
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median of `xs`; 0 when empty.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 50.0)
}

/// Tail percentiles the benchmark may report, in per mille, highest first.
const TAILS_PER_MILLE: [u64; 5] = [999, 990, 950, 900, 750];

/// The highest tail percentile, at most `cap`, that has at least ten of
/// `n` samples beyond it. A tail read from fewer samples is one outlier,
/// not a tail, so below that the median (50) stands in.
#[must_use]
pub fn tail_percentile(n: usize, cap: f64) -> f64 {
    TAILS_PER_MILLE
        .iter()
        .copied()
        .filter(|&pm| pm as f64 / 10.0 <= cap)
        // n · (1 − pm/1000) ≥ 10, in integers so 99% of 1000 qualifies.
        .find(|&pm| n as u64 * (1000 - pm) >= 10_000)
        .map_or(50.0, |pm| pm as f64 / 10.0)
}

/// Length of the union of `intervals` (half-open, in nanoseconds) clipped
/// to `[lo, hi)`. Overlapping intervals — replays running side by side on
/// two workers — count once.
#[must_use]
pub fn covered(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut run: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                total += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + run.map_or(0, |(s, e)| e - s)
}

/// A span's self time: its duration minus the part its children cover.
#[must_use]
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    (parent.1 - parent.0) - covered(parent.0, parent.1, children)
}

/// Whether `name` may name a metric: 1 to 64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_and_handles_empty() {
        assert_eq!(quantile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 90.0), 9.0);
        assert_eq!(quantile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(10_000, 99.9), 99.9);
        assert_eq!(tail_percentile(9_999, 99.9), 99.0);
        assert_eq!(tail_percentile(10_000, 99.0), 99.0);
        assert_eq!(tail_percentile(1_000, 99.0), 99.0);
        assert_eq!(tail_percentile(999, 99.0), 95.0);
        assert_eq!(tail_percentile(200, 99.0), 95.0);
        assert_eq!(tail_percentile(100, 99.0), 90.0);
        assert_eq!(tail_percentile(40, 99.0), 75.0);
        assert_eq!(tail_percentile(39, 99.0), 50.0);
        assert_eq!(tail_percentile(0, 99.0), 50.0);
    }

    #[test]
    fn union_merges_overlapping_and_nested_children() {
        // Two workers: [10,40) and [20,50) overlap, [60,70) stands alone,
        // [62,65) nests inside it.
        let kids = [(20, 50), (10, 40), (60, 70), (62, 65)];
        assert_eq!(covered(0, 100, &kids), 40 + 10);
        assert_eq!(self_time((0, 100), &kids), 50);
    }

    #[test]
    fn union_clips_children_to_the_parent() {
        assert_eq!(covered(10, 20, &[(0, 15), (18, 30), (40, 50)]), 5 + 2);
        assert_eq!(self_time((10, 20), &[(0, 30)]), 0);
        assert_eq!(self_time((10, 20), &[]), 10);
        // Touching intervals merge without double counting the boundary.
        assert_eq!(covered(0, 100, &[(0, 10), (10, 20)]), 20);
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in [
            "campaign_s",
            "mpi.empty_run_ms.np1024",
            "scheduler.replay_ms.p99",
            "0x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            ".lead",
            "-lead",
            "_lead",
            "has space",
            "x/y",
            "µs",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
