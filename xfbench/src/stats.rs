//! Order statistics over timing samples, and the process's peak memory.

/// Percentiles the tail is chosen from, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a tail percentile must leave beyond it to be reported.
const TAIL_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile of ascending `sorted`, with the number
/// of samples strictly after it in rank order.
fn nearest_rank(sorted: &[f64], p: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    (sorted[rank - 1], n - rank)
}

/// Median of `samples` (mean of the middle pair for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail latency: the highest percentile of the ladder with at least ten
/// samples beyond it, its value and the sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

/// Picks the tail percentile of `samples`. Falls back to the median when
/// even the 50th percentile leaves fewer than ten samples beyond it.
pub fn tail(samples: &[f64]) -> Tail {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "tail of no samples");
    for p in TAIL_LADDER {
        let (value, beyond) = nearest_rank(&v, p);
        if beyond >= TAIL_BEYOND {
            return Tail {
                percentile: p,
                value,
                samples: v.len(),
            };
        }
    }
    Tail {
        percentile: 50.0,
        value: median(&v),
        samples: v.len(),
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None` where
/// `/proc` does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_takes_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99.9 leaves 1 beyond, p99 leaves exactly 10.
        let t = tail(&ramp(1000));
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));
        // 999 samples: p99 leaves only 9 beyond, so p95 is the tail.
        let t = tail(&ramp(999));
        assert_eq!((t.percentile, t.value), (95.0, 950.0));
        // 100 samples: p90 leaves exactly 10 beyond.
        assert_eq!(tail(&ramp(100)).percentile, 90.0);
        // 40 samples: p75 leaves exactly 10; 39 fall through to the median.
        assert_eq!(tail(&ramp(40)).percentile, 75.0);
        assert_eq!(tail(&ramp(39)).percentile, 50.0);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v = ramp(200);
        v.reverse();
        assert_eq!(tail(&v), tail(&ramp(200)));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
