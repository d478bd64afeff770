//! Small statistics and process helpers shared by every workload: the
//! median and quartiles of timing samples, the tail percentile a sample
//! count can support, failed-op accounting and the peak-RSS reader.

/// Median of `xs` (mean of the two middle values for even counts);
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed exactly like
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method), so spreads printed here match the ones computed
/// from the result lines. A single sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let v = sorted(xs);
    let ld = v.len();
    match ld {
        0 => return (f64::NAN, f64::NAN, f64::NAN),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let (n, m) = (4usize, ld + 1);
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (q(1), q(2), q(3))
}

/// Nearest-rank `p`-th percentile of `xs` (`p` in 0..=100, resolved to
/// tenths of a percent); `NaN` for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    v[rank(v.len(), (p * 10.0).round() as usize) - 1]
}

/// 1-based nearest rank of the `permille`-th per-mille of `n >= 1`
/// samples, in integer arithmetic so 99.9% of 10,000 is exactly 9,990.
fn rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// The highest of the usual reporting percentiles (99.9, 99, 95, 90,
/// 75, 50) that still has at least ten samples beyond it among `n`
/// samples — the tail a timing can honestly be reported at. `None` when
/// even the median has fewer than ten samples above it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [999, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|&pm| n > 0 && n - rank(n, pm) >= 10)
        .map(|pm| pm as f64 / 10.0)
}

/// Attempted and failed operations. An op is one campaign run or one
/// timed window; a failed output check also counts as a failure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    /// Operations started.
    pub attempted: u64,
    /// Operations that panicked, returned an error, failed to form on a
    /// clean channel or failed an output check.
    pub failed: u64,
}

impl Ops {
    /// Records one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a failed check that is not itself an operation (an anchor
    /// or determinism check over several ops). Keeps `failed <=
    /// attempted` by charging it to an op already attempted.
    pub fn fail_check(&mut self) {
        self.attempted = self.attempted.max(self.failed + 1);
        self.failed += 1;
    }

    /// Failed ops over attempted ops (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Parses the `VmHWM` line (peak resident set, in kB) out of the text of
/// `/proc/<pid>/status`.
pub fn vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// This process's peak resident set in MB (`VmHWM`), or `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 1..2_000 {
            if let Some(p) = tail_percentile(n) {
                let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
                let at = percentile(&xs, p);
                assert!(xs.iter().filter(|&&x| x > at).count() >= 10, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn failed_frac_counts_an_injected_failure() {
        let mut ops = Ops::default();
        assert_eq!(ops.failed_frac(), 0.0);
        for i in 0..10 {
            ops.record(i != 3);
        }
        assert_eq!((ops.attempted, ops.failed), (10, 1));
        assert_eq!(ops.failed_frac(), 0.1);
        ops.fail_check();
        assert_eq!((ops.attempted, ops.failed), (10, 2));
        let mut empty = Ops::default();
        empty.fail_check();
        assert_eq!((empty.attempted, empty.failed), (1, 1));
        assert_eq!(empty.failed_frac(), 1.0);
    }

    #[test]
    fn vm_hwm_reader_parses_proc_status() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  200000 kB\nVmHWM:\t   75776 kB\nVmRSS:\t   70000 kB\n";
        assert_eq!(vm_hwm_kb(status), Some(75_776));
        assert_eq!(vm_hwm_kb("Name:\tx\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\tlots kB\n"), None);
        let own = peak_rss_mb().expect("linux exposes /proc/self/status");
        assert!(own > 0.0);
    }
}
