//! The arithmetic behind every reported number: exact percentiles over raw
//! samples, medians over per-second segments, and the open-loop schedule.
//!
//! Samples are kept raw (one `u32` of nanoseconds per frame or sampled
//! call) rather than bucketed: a run holds at most a few million of them,
//! and exact order statistics need no precision argument.

/// A reported value and the number of raw observations behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    pub value: f64,
    pub samples: u64,
}

impl Stat {
    /// The same observations in another unit (`factor` old units per new).
    pub fn scaled(self, factor: f64) -> Stat {
        Stat {
            value: self.value * factor,
            samples: self.samples,
        }
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the samples at or below it.  `p` in `(0, 1]`.
pub fn percentile(sorted: &[u32], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    f64::from(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The reporting rule for latencies: take the percentile inside each
/// one-second segment, then the median across segments, so that one
/// disturbed second (a neighbour's burst on a shared box) moves nothing.
/// Empty segments are skipped.  Values are nanoseconds.
pub fn segment_percentile<'a>(
    segments: impl IntoIterator<Item = &'a mut Vec<u32>>,
    p: f64,
) -> Stat {
    let mut per_segment = Vec::new();
    let mut samples = 0u64;
    for seg in segments.into_iter().filter(|s| !s.is_empty()) {
        seg.sort_unstable();
        per_segment.push(percentile(seg, p));
        samples += seg.len() as u64;
    }
    Stat {
        value: median(&per_segment),
        samples,
    }
}

/// Share of a one-second segment the hypervisor may steal before the
/// segment is left out of the medians: such a second measured the
/// neighbours, not the program (README.md, "Noise").
pub const STEAL_LIMIT: f64 = 0.02;

/// Which segments to keep given each one's stolen share: those within
/// [`STEAL_LIMIT`] — unless that would leave fewer than two, in which case
/// the whole run was disturbed and every segment is kept (and the run's
/// `stolen_segments` diagnostic says so).
pub fn quiet_segments(stolen_share: &[f64]) -> Vec<bool> {
    let keep: Vec<bool> = stolen_share.iter().map(|&s| s <= STEAL_LIMIT).collect();
    if keep.iter().filter(|&&k| k).count() < 2 {
        return vec![true; stolen_share.len()];
    }
    keep
}

/// Saturating nanoseconds-to-`u32` (4.29 s; anything longer is far past
/// every latency limit and reads as the cap).
pub fn clamp_ns(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

/// A fixed open-loop schedule: request `i` is due `i / rate` seconds after
/// the phase starts, whatever the system under test is doing.  The caller
/// times each request from its *due* time, so a stall is charged to every
/// request that fell due during it, not just the one that was in flight.
#[derive(Debug, Clone)]
pub struct Schedule {
    rate_per_s: u64,
    total: u64,
    next: u64,
}

impl Schedule {
    pub fn new(rate_per_s: u64, duration_ns: u64) -> Self {
        assert!(rate_per_s > 0);
        Self {
            rate_per_s,
            total: (u128::from(duration_ns) * u128::from(rate_per_s) / 1_000_000_000) as u64,
            next: 0,
        }
    }

    fn due_ns(&self, index: u64) -> u64 {
        (u128::from(index) * 1_000_000_000 / u128::from(self.rate_per_s)) as u64
    }

    /// `(index, due_ns)` of the next unissued request, `None` once all are
    /// issued.
    pub fn peek(&self) -> Option<(u64, u64)> {
        (self.next < self.total).then(|| (self.next, self.due_ns(self.next)))
    }

    /// Takes the next request if it is due at `now_ns`: `(index, due_ns)`.
    pub fn pop_due(&mut self, now_ns: u64) -> Option<(u64, u64)> {
        let next = self.peek().filter(|&(_, due)| due <= now_ns)?;
        self.next += 1;
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_a_sorted_vector() {
        let sorted: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 0.5), 500.0);
        assert_eq!(percentile(&sorted, 0.99), 990.0);
        assert_eq!(percentile(&sorted, 0.999), 999.0);
        assert_eq!(percentile(&sorted, 1.0), 1000.0);
        assert_eq!(percentile(&[7], 0.99), 7.0);
        // Nearest rank never interpolates: with 10 samples p99 is the max.
        let ten: Vec<u32> = (1..=10).map(|v| v * 10).collect();
        assert_eq!(percentile(&ten, 0.99), 100.0);
        assert_eq!(percentile(&ten, 0.5), 50.0);
        // Against brute force on an arbitrary vector.
        let mut v: Vec<u32> = (0..997u32)
            .map(|i| i.wrapping_mul(2_654_435_761) % 10_007)
            .collect();
        v.sort_unstable();
        for p in [0.01, 0.25, 0.5, 0.9, 0.99] {
            let got = percentile(&v, p);
            let at_or_below = v.iter().filter(|&&s| f64::from(s) <= got).count();
            let below = v.iter().filter(|&&s| f64::from(s) < got).count();
            assert!(at_or_below as f64 >= p * v.len() as f64);
            assert!((below as f64) < p * v.len() as f64);
        }
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn an_outlier_segment_does_not_move_the_median_of_segments() {
        let calm = |base: u32| (0..1000).map(|i| base + i % 10).collect::<Vec<u32>>();
        let mut segments = vec![calm(100), calm(100), calm(100), calm(100), calm(100)];
        let quiet = segment_percentile(&mut segments.clone(), 0.99);
        // One second in which every request took 50x longer.
        segments[2] = calm(5000);
        let disturbed = segment_percentile(&mut segments, 0.99);
        assert_eq!(quiet.value, disturbed.value);
        assert_eq!(disturbed.samples, 5000);
        // The pooled p99 over all samples, by contrast, is the outlier.
        let mut pooled: Vec<u32> = segments.concat();
        pooled.sort_unstable();
        assert!(percentile(&pooled, 0.99) > 10.0 * disturbed.value);
        // Empty segments are skipped rather than read as zero.
        let mut sparse = vec![calm(100), Vec::new(), calm(100)];
        assert_eq!(segment_percentile(&mut sparse, 0.5).value, 104.0);
    }

    #[test]
    fn stolen_segments_are_dropped_unless_too_few_remain() {
        assert_eq!(
            quiet_segments(&[0.0, 0.5, 0.01, 0.0]),
            [true, false, true, true]
        );
        assert_eq!(
            quiet_segments(&[0.3, 0.5, 0.01, 0.2]),
            [true; 4],
            "one quiet second is not a run"
        );
        assert_eq!(quiet_segments(&[]), Vec::<bool>::new());
    }

    #[test]
    fn schedule_is_fixed_and_complete() {
        let mut s = Schedule::new(4, 1_000_000_000);
        assert_eq!(s.pop_due(0), Some((0, 0)));
        assert_eq!(s.pop_due(0), None, "second request is not due yet");
        assert_eq!(s.peek(), Some((1, 250_000_000)));
        assert_eq!(s.pop_due(250_000_000), Some((1, 250_000_000)));
        assert_eq!(s.pop_due(900_000_000), Some((2, 500_000_000)));
        assert_eq!(s.pop_due(900_000_000), Some((3, 750_000_000)));
        assert_eq!(s.pop_due(u64::MAX), None);
        assert_eq!(s.peek(), None);
    }

    /// A server that answers instantly except for one 10 ms stall, driven
    /// by an injected clock: every request that fell due during the stall
    /// must be charged the part of the stall it sat through, which a
    /// send-time clock would hide (coordinated omission).
    #[test]
    fn a_stall_is_charged_to_every_request_due_during_it() {
        const MS: u64 = 1_000_000;
        let mut schedule = Schedule::new(1000, 30 * MS); // one request per ms
        let mut latencies = Vec::new();
        let mut now = 0u64;
        while schedule.peek().is_some() {
            // The generator cannot run while the server stalls 5 ms..15 ms.
            if (5 * MS..15 * MS).contains(&now) {
                now = 15 * MS;
            }
            while let Some((index, due)) = schedule.pop_due(now) {
                latencies.push((index, now - due));
            }
            now += MS / 4;
        }
        assert_eq!(latencies.len(), 30);
        for &(index, lat) in &latencies {
            let due = index * MS;
            if (5 * MS..15 * MS).contains(&due) {
                assert_eq!(lat, 15 * MS - due, "request {index} sat through the stall");
            } else {
                assert!(lat < MS, "request {index} was on time");
            }
        }
        let charged: u64 = latencies.iter().map(|&(_, lat)| lat / MS).sum();
        assert_eq!(charged, (1..=10).sum::<u64>(), "10+9+…+1 ms of queueing");
    }
}
