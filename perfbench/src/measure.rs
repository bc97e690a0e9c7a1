//! The benchmark's own arithmetic: percentiles, batch-lag matching and
//! event-multiset comparison. Kept free of I/O so the tests below can pin
//! it exactly.

use std::collections::VecDeque;

/// Fewest samples that must lie beyond a reported tail percentile.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100) of `sorted` (ascending), or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it — a tail figure
/// that rests on a handful of samples is noise, not a measurement.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let idx = rank.clamp(1, n) - 1;
    (n - 1 - idx >= MIN_BEYOND).then(|| sorted[idx])
}

/// Median of `values` (any order); the mean of the middle pair for an
/// even count. `None` when empty.
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

/// Matches sent batches against a monotone trace of the pool's
/// `processed()` counter. A batch is done at the first poll, no earlier
/// than its send, at which `processed()` covers its last synopsis; its lag
/// is that poll time minus its send (or scheduled-send) time.
///
/// Batches are matched in send order, so `lags()` is indexed by batch.
/// Each lag carries the gap between the matching poll and the poll before
/// it — the resolution of that sample.
#[derive(Debug, Default)]
pub struct LagMatcher {
    pending: VecDeque<(u64, u64)>,
    lags_ns: Vec<u64>,
    resolution_ns: Vec<u64>,
    last_poll_ns: Option<u64>,
}

impl LagMatcher {
    /// Record a batch whose last synopsis is number `cum_end` (1-based,
    /// cumulative over the run), due or sent at `t_ns`.
    pub fn sent(&mut self, t_ns: u64, cum_end: u64) {
        self.pending.push_back((t_ns, cum_end));
    }

    /// Record one poll of `processed()` taken at `t_ns`.
    pub fn observe(&mut self, t_ns: u64, processed: u64) {
        let gap = self
            .last_poll_ns
            .map_or(0, |last| t_ns.saturating_sub(last));
        self.last_poll_ns = Some(t_ns);
        while let Some(&(sent_ns, cum_end)) = self.pending.front() {
            if cum_end > processed || sent_ns > t_ns {
                break;
            }
            self.pending.pop_front();
            self.lags_ns.push(t_ns - sent_ns);
            self.resolution_ns.push(gap);
        }
    }

    /// Lag of every matched batch, in send order.
    pub fn lags_ns(&self) -> &[u64] {
        &self.lags_ns
    }

    /// Poll gap preceding each matched sample, in send order.
    pub fn resolution_ns(&self) -> &[u64] {
        &self.resolution_ns
    }
}

/// Milliseconds of each nanosecond sample, sorted ascending.
pub fn sorted_ms(ns: &[u64]) -> Vec<f64> {
    let mut v: Vec<f64> = ns.iter().map(|&x| x as f64 / 1e6).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Median, over `slices` consecutive equal runs of `samples_ns` (send
/// order), of each run's percentile `p`, in ms. Slicing keeps a few
/// bursts of interference on a shared machine from setting the whole
/// run's tail; a slowdown that recurs through the run still moves the
/// median slice. `None` when a slice cannot support `p` (see
/// [`percentile`]).
pub fn sliced_percentile(samples_ns: &[u64], slices: usize, p: f64) -> Option<f64> {
    let n = samples_ns.len();
    if slices == 0 || n < slices {
        return None;
    }
    let tails: Option<Vec<f64>> = (0..slices)
        .map(|k| {
            percentile(
                &sorted_ms(&samples_ns[k * n / slices..(k + 1) * n / slices]),
                p,
            )
        })
        .collect();
    median(&tails?)
}

/// Median over consecutive `(cost, work)` snapshots of Δcost ÷ Δwork,
/// skipping intervals in which no work completed.
pub fn sliced_rate(snapshots: &[(u64, u64)]) -> Option<f64> {
    let rates: Vec<f64> = snapshots
        .windows(2)
        .filter(|w| w[1].1 > w[0].1)
        .map(|w| (w[1].0 - w[0].0) as f64 / (w[1].1 - w[0].1) as f64)
        .collect();
    median(&rates)
}

/// Size of the symmetric difference of two multisets.
pub fn multiset_diff<T: Ord + Clone>(a: &[T], b: &[T]) -> u64 {
    let (mut a, mut b) = (a.to_vec(), b.to_vec());
    a.sort_unstable();
    b.sort_unstable();
    let (mut i, mut j, mut diff) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                diff += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                diff += 1;
                j += 1;
            }
        }
    }
    diff + (a.len() - i) as u64 + (b.len() - j) as u64
}

/// Sum of every series of counter or gauge `name` in a Prometheus text
/// rendering, across labels.
pub fn series_sum(text: &str, name: &str) -> f64 {
    sample_lines(text, name).map(|(_, v)| v).sum()
}

/// Quantile `q` (0–1) of histogram `name` from its cumulative buckets:
/// the upper bound of the first bucket holding the `ceil(q·count)`-th
/// sample, with the sample count. `None` for an empty histogram or a
/// quantile that falls in the `+Inf` bucket.
pub fn histogram_quantile(text: &str, name: &str, q: f64) -> Option<(f64, u64)> {
    let bucket = format!("{name}_bucket");
    let mut buckets: Vec<(f64, f64)> = sample_lines(text, &bucket)
        .filter_map(|(labels, cum)| {
            let le = labels.split("le=\"").nth(1)?.split('"').next()?;
            Some((le.parse::<f64>().ok()?, cum))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let count = buckets.last()?.1 as u64;
    if count == 0 {
        return None;
    }
    let target = ((q * count as f64).ceil() as u64).max(1) as f64;
    let &(le, _) = buckets.iter().find(|(_, cum)| *cum >= target)?;
    le.is_finite().then_some((le, count))
}

/// `(labels, value)` of every sample line of exactly metric `name`.
fn sample_lines<'a>(text: &'a str, name: &'a str) -> impl Iterator<Item = (&'a str, f64)> + 'a {
    text.lines().filter_map(move |line| {
        let rest = line.strip_prefix(name)?;
        let (labels, value) = match rest.strip_prefix('{') {
            Some(r) => {
                let (labels, value) = r.split_once("} ")?;
                (labels, value)
            }
            None => ("", rest.strip_prefix(' ')?),
        };
        Some((labels, value.trim().parse().ok()?))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|x| x as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(1000);
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples leaves exactly 10 beyond: supported.
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        // p99 of 999 samples leaves 9 beyond: refused.
        assert_eq!(percentile(&ramp(999), 99.0), None);
        // The median of a short run is fine, its maximum never is.
        assert_eq!(percentile(&ramp(21), 50.0), Some(11.0));
        assert_eq!(percentile(&ramp(21), 100.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn lag_matching_against_monotone_trace() {
        let mut m = LagMatcher::default();
        // Three batches of 10 sent at t = 0, 5, 10.
        m.sent(0, 10);
        m.sent(5, 20);
        m.sent(10, 30);
        m.observe(7, 0); // nothing processed yet
        m.observe(12, 15); // covers batch 0 only
        m.observe(20, 30); // covers batches 1 and 2 at once
        assert_eq!(m.lags_ns(), &[12, 15, 10]);
        assert_eq!(m.resolution_ns(), &[5, 8, 8]);
        assert_eq!(m.pending.len(), 0);
    }

    #[test]
    fn lag_matching_never_predates_the_send() {
        let mut m = LagMatcher::default();
        m.sent(0, 10);
        m.observe(3, 10);
        // A later batch whose count is already covered (a trace sample
        // taken before it was even sent cannot finish it).
        m.sent(50, 20);
        m.observe(40, 20);
        assert_eq!(m.pending.len(), 1);
        m.observe(55, 20);
        assert_eq!(m.lags_ns(), &[3, 5]);
    }

    #[test]
    fn multiset_diff_counts_multiplicity() {
        let a = ["x", "y", "y", "z"];
        let b = ["y", "z", "z", "w"];
        // Only in a: x, y. Only in b: z, w.
        assert_eq!(multiset_diff(&a, &b), 4);
        assert_eq!(multiset_diff(&a, &a), 0);
        assert_eq!(multiset_diff(&a, &[]), 4);
        assert_eq!(multiset_diff::<&str>(&[], &[]), 0);
    }

    const EXPO: &str = "# TYPE saad_reactor_polls_total counter
saad_reactor_polls_total{loop=\"0\"} 10
saad_reactor_polls_total{loop=\"1\"} 5
saad_reactor_polls_total_extra 99
saad_pool_detecting 1
# TYPE lat histogram
lat_bucket{le=\"10\"} 50
lat_bucket{le=\"20\"} 90
lat_bucket{le=\"40\"} 100
lat_bucket{le=\"+Inf\"} 100
lat_sum 1500
lat_count 100
";

    #[test]
    fn series_sum_adds_labelled_series_of_one_name() {
        assert_eq!(series_sum(EXPO, "saad_reactor_polls_total"), 15.0);
        assert_eq!(series_sum(EXPO, "saad_pool_detecting"), 1.0);
        assert_eq!(series_sum(EXPO, "absent"), 0.0);
    }

    #[test]
    fn histogram_quantile_reads_cumulative_buckets() {
        assert_eq!(histogram_quantile(EXPO, "lat", 0.5), Some((10.0, 100)));
        assert_eq!(histogram_quantile(EXPO, "lat", 0.51), Some((20.0, 100)));
        assert_eq!(histogram_quantile(EXPO, "lat", 0.99), Some((40.0, 100)));
        assert_eq!(histogram_quantile(EXPO, "absent", 0.5), None);
    }

    #[test]
    fn sliced_percentile_is_the_median_slice_tail() {
        // Three slices of 1000 samples; the middle one has a slow burst.
        let samples: Vec<u64> = (0..3u64)
            .flat_map(|k| {
                (1..=1000u64).map(move |i| i * 1_000 + if k == 1 { 1_000_000 } else { 0 })
            })
            .collect();
        // Per-slice p99 (ms): 0.99, 1.99, 0.99 — the burst does not win.
        assert_eq!(sliced_percentile(&samples, 3, 99.0), Some(0.99));
        // Slices too small for a p99 refuse the whole figure.
        assert_eq!(sliced_percentile(&samples, 4, 99.0), None);
        assert_eq!(sliced_percentile(&samples[..2], 3, 50.0), None);
    }

    #[test]
    fn sliced_rate_takes_the_median_interval() {
        let snaps = [(0, 0), (100, 10), (100, 10), (400, 20), (500, 30)];
        // Intervals: 10/unit, (no work: skipped), 30/unit, 10/unit.
        assert_eq!(sliced_rate(&snaps), Some(10.0));
        assert_eq!(sliced_rate(&[(0, 0)]), None);
    }
}
