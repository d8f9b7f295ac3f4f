//! Order statistics with the benchmark's percentile rule: a percentile is
//! only reported when at least [`MIN_BEYOND`] samples lie beyond it, so a
//! "p90" is never the maximum of a handful of samples. Also the choice of
//! the units a run's timing metrics are taken over ([`fastest`]).

use std::collections::BTreeMap;

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count); `None` when
/// there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Smallest sample count for which [`Latencies::percentile`] reports
/// quantile `q`.
pub fn min_samples_for(q: f64) -> usize {
    (1..)
        .find(|&n| rank(n, q).is_some_and(|i| n - 1 - i >= MIN_BEYOND))
        .expect("some count satisfies the rule")
}

/// Nearest-rank index of quantile `q` (in `(0, 1]`) among `n` sorted samples.
fn rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    Some(((q * n as f64).ceil() as usize).clamp(1, n) - 1)
}

/// Mantissa bits of a latency bucket: buckets are 2^-10 (about 0.1 %)
/// of their value wide, exact below 1024 ns.
const BUCKET_BITS: u32 = 10;

/// The bucket holding `ns`, as the bucket's smallest value.
fn bucket(ns: u64) -> u64 {
    let top = 63 - ns.max(1).leading_zeros();
    if top < BUCKET_BITS {
        ns
    } else {
        let shift = top - BUCKET_BITS;
        (ns >> shift) << shift
    }
}

/// Latency histogram with log-linear buckets 0.1 % wide: nearest-rank
/// percentiles to within 0.1 %, in memory bounded by the number of buckets
/// rather than the number of requests, so a faster program (more requests
/// per run) does not read as one using more memory.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Latencies {
    counts: BTreeMap<u64, u64>,
    n: usize,
}

impl Latencies {
    /// Records one latency.
    pub fn push(&mut self, ns: u64) {
        *self.counts.entry(bucket(ns)).or_default() += 1;
        self.n += 1;
    }

    /// Adds every latency of `other`.
    pub fn merge(&mut self, other: &Latencies) {
        for (&ns, &count) in &other.counts {
            *self.counts.entry(ns).or_default() += count;
        }
        self.n += other.n;
    }

    /// Number of latencies recorded.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Nearest-rank quantile `q` in ns (its bucket's smallest value), or
    /// `None` when fewer than [`MIN_BEYOND`] latencies lie beyond it.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        let i = rank(self.n, q)?;
        if self.n - 1 - i < MIN_BEYOND {
            return None;
        }
        let mut seen = 0usize;
        self.counts.iter().find_map(|(&ns, &count)| {
            seen += count as usize;
            (seen > i).then_some(ns)
        })
    }
}

/// Share of a run's units, fastest first, that its timing metrics are
/// taken over.
///
/// The host drifts between speed phases that last from seconds to many
/// minutes: on a shared 2-vCPU VM, the same code runs 1.5 to 2 times
/// slower in the slow phase, because other tenants contend for the core.
/// A run's mean or median follows the share of the run that fell in each
/// phase, which changes from run to run; its fastest tenth of units lies
/// in the fast phase whenever a tenth of the run does.
pub const FAST_SHARE: f64 = 0.1;

/// Fewest units the timing metrics are taken over.
pub const MIN_FAST: usize = 10;

/// Run-order indices of the units a run's timing metrics are taken over:
/// the fastest [`FAST_SHARE`] of them by `times` (at least [`MIN_FAST`]),
/// and then more, fastest first, until they hold at least `min_requests`
/// requests.
pub fn fastest(times: &[f64], requests: &[usize], min_requests: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..times.len()).collect();
    order.sort_by(|&a, &b| times[a].total_cmp(&times[b]));
    let share = ((times.len() as f64 * FAST_SHARE).ceil() as usize).max(MIN_FAST);
    let mut taken = 0;
    let mut held = 0;
    for &u in &order {
        if taken >= share && held >= min_requests {
            break;
        }
        held += requests[u];
        taken += 1;
    }
    let mut picked = order[..taken].to_vec();
    picked.sort_unstable();
    picked
}

/// One unit's request latencies, as a run keeps them until it knows which
/// units are its fastest. A unit that holds enough requests for every
/// reported percentile is a window of its own (see [`Windows`]) and is
/// kept as those percentiles only, so the run's memory does not grow with
/// the number of requests.
#[derive(Clone, Debug)]
pub enum UnitRequests {
    /// A whole window: request count and its [`Windows::QUANTILES`].
    Window(usize, [u64; 2]),
    /// Too few requests for a window on their own.
    Part(Latencies),
}

impl UnitRequests {
    /// Keeps `latencies`, reduced to a window when they fill one.
    pub fn new(latencies: Latencies) -> Self {
        match Windows::QUANTILES.map(|q| latencies.percentile(q)) {
            [Some(p50), Some(p90)] => Self::Window(latencies.len(), [p50, p90]),
            _ => Self::Part(latencies),
        }
    }

    /// The unit's own percentiles, when it fills a window alone.
    pub fn window(&self) -> Option<[u64; 2]> {
        match self {
            Self::Window(_, pct) => Some(*pct),
            Self::Part(_) => None,
        }
    }

    /// Requests of the unit.
    pub fn len(&self) -> usize {
        match self {
            Self::Window(n, _) => *n,
            Self::Part(l) => l.len(),
        }
    }
}

/// Request-latency percentiles per window, averaged over the windows. A
/// unit with enough requests for every reported percentile is a window of
/// its own; smaller units are pooled in the order they are added until the
/// pool holds enough, and a final partial pool is dropped.
///
/// A run's requests mix the host's fast and slow phases, and one
/// percentile over all of them jumps from one mode to the other as the mix
/// passes the percentile; a window sits inside one phase or a few.
#[derive(Clone, Debug, Default)]
pub struct Windows {
    current: Latencies,
    closed: Vec<[u64; 2]>,
    requests: usize,
}

impl Windows {
    /// The quantiles reported per window.
    pub const QUANTILES: [f64; 2] = [0.5, 0.9];

    /// Adds one unit's requests, closing a window once one is full.
    pub fn add(&mut self, unit: &UnitRequests) {
        self.requests += unit.len();
        match unit {
            UnitRequests::Window(_, pct) => self.closed.push(*pct),
            UnitRequests::Part(latencies) => {
                self.current.merge(latencies);
                if let [Some(p50), Some(p90)] = Self::QUANTILES.map(|q| self.current.percentile(q)) {
                    self.closed.push([p50, p90]);
                    self.current = Latencies::default();
                }
            }
        }
    }

    /// Closed windows.
    pub fn len(&self) -> usize {
        self.closed.len()
    }

    /// Requests added, partial window included.
    pub fn requests(&self) -> usize {
        self.requests
    }

    /// Mean over closed windows of quantile `Self::QUANTILES[i]`, in ns.
    pub fn mean(&self, i: usize) -> Option<f64> {
        let n = self.closed.len();
        (n > 0).then(|| self.closed.iter().map(|w| w[i] as f64).sum::<f64>() / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: u64) -> Latencies {
        let mut l = Latencies::default();
        (1..=n).rev().for_each(|ns| l.push(ns));
        l
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples_for(0.5), 20);
        assert_eq!(min_samples_for(0.9), 100);
        assert_eq!(ramp(19).percentile(0.5), None);
        assert_eq!(ramp(20).percentile(0.5), Some(10));
        assert_eq!(ramp(99).percentile(0.9), None);
        assert_eq!(ramp(100).percentile(0.9), Some(90));
        assert_eq!(ramp(1000).percentile(0.99), Some(990));
    }

    #[test]
    fn every_reported_percentile_has_ten_samples_beyond() {
        let mut l = Latencies::default();
        let mut samples = Vec::new();
        for n in 1..400u64 {
            // Repeated values exercise the counted buckets.
            let ns = (n * 7919) % 97;
            l.push(ns);
            samples.push(ns);
            samples.sort_unstable();
            for q in [0.5, 0.9, 0.95, 0.99] {
                let expected = rank(samples.len(), q)
                    .filter(|&i| samples.len() - 1 - i >= MIN_BEYOND)
                    .map(|i| samples[i]);
                assert_eq!(l.percentile(q), expected, "n={n} q={q}");
                if let Some(p) = expected {
                    let at_or_beyond = samples.iter().filter(|&&s| s >= p).count();
                    assert!(at_or_beyond > MIN_BEYOND, "n={n} q={q}");
                }
            }
        }
        let mut wide = Latencies::default();
        for ns in [20_000u64, 20_011, 20_019, 123_456_789] {
            assert!(
                bucket(ns) <= ns && ns - bucket(ns) <= ns >> BUCKET_BITS,
                "{ns}"
            );
            wide.push(ns);
        }
        assert_eq!(bucket(20_000), bucket(20_011));
        assert_ne!(bucket(20_000), bucket(20_040));
        let mut merged = Latencies::default();
        merged.merge(&l);
        merged.merge(&l);
        assert_eq!(merged.len(), 2 * l.len());
        assert_eq!(merged.percentile(0.5), l.percentile(0.5));
    }

    #[test]
    fn windows_close_once_every_percentile_is_reportable() {
        let mut w = Windows::default();
        let unit = |ns: u64, n: usize| {
            let mut l = Latencies::default();
            (0..n).for_each(|_| l.push(ns));
            UnitRequests::new(l)
        };
        // 40-request units: a window needs 100, so it closes every third unit.
        for k in 0..7 {
            w.add(&unit(if k < 3 { 1000 } else { 2000 }, 40));
        }
        assert_eq!((w.len(), w.requests()), (2, 280));
        assert_eq!(w.mean(0), Some(1500.0));
        assert_eq!(w.mean(1), Some(1500.0));
        assert_eq!(Windows::default().mean(0), None);
        // A unit that fills a window alone is kept as its percentiles.
        let big = unit(3000, 100);
        assert_eq!(big.window(), Some([3000, 3000]));
        assert_eq!(unit(3000, 99).window(), None);
        w.add(&big);
        assert_eq!((w.len(), w.requests()), (3, 380));
        assert_eq!(w.mean(0), Some(2000.0));
    }

    #[test]
    fn fastest_takes_a_tenth_and_enough_requests() {
        // Unit k of 200 takes (k * 37) % 200 time units: a permutation.
        let walls: Vec<f64> = (0..200).map(|k| ((k * 37) % 200) as f64).collect();
        let rank = |picked: &[usize]| {
            let mut r: Vec<f64> = picked.iter().map(|&i| walls[i]).collect();
            r.sort_by(f64::total_cmp);
            r
        };
        // A tenth of 200: the 20 fastest, in run order.
        let picked = fastest(&walls, &[50; 200], 100);
        assert!(picked.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(rank(&picked), (0..20).map(f64::from).collect::<Vec<_>>());
        // Too few requests in them: the next fastest join until 100.
        assert_eq!(fastest(&walls, &[4; 200], 100).len(), 25);
        // Never fewer than MIN_FAST, nor more units than there are.
        assert_eq!(fastest(&walls[..40], &[50; 40], 0).len(), MIN_FAST);
        assert_eq!(fastest(&walls[..8], &[1; 8], 100).len(), 8);
        assert!(fastest(&[], &[], 100).is_empty());
    }
}
