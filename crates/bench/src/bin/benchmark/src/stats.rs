//! Estimators and the seeded generator. Frozen with the benchmark: the
//! numbers in `LEDGER.json` are only comparable while these stay as they
//! are.

/// SplitMix64: the benchmark's only source of randomness, so one `--seed`
/// always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (`salt`) under the same seed.
    pub fn fork(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `pct`-th percentile (0–100] of an ascending-sorted sample by the
/// nearest-rank method; 0 for an empty sample.
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Quantile `q` in [0, 1] of an unsorted sample, linearly interpolated
/// between order statistics (the "inclusive" method); NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn lower_quartile(values: &[f64]) -> f64 {
    quantile(values, 0.25)
}

/// A value with the spread it was taken from (segment or round min–max).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    pub value: f64,
    pub lo: f64,
    pub hi: f64,
}

impl Estimate {
    pub fn exact(value: f64) -> Estimate {
        Estimate {
            value,
            lo: value,
            hi: value,
        }
    }

    /// Median with the interquartile range: for samples of dozens (rounds,
    /// children), where min–max would only report the worst outlier.
    pub fn quartiles_of(values: &[f64]) -> Estimate {
        Estimate {
            value: median(values),
            lo: quantile(values, 0.25),
            hi: quantile(values, 0.75),
        }
    }

    /// Median over per-segment values, with the segment min–max.
    pub fn median_of(values: &[f64]) -> Estimate {
        Estimate {
            value: median(values),
            lo: values.iter().copied().fold(f64::INFINITY, f64::min),
            hi: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// One completed operation of a timed phase: when it completed (ns since
/// the phase began) and how long it took.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub done_ns: u64,
    pub latency_ns: u64,
}

/// Cut a timed phase of `phase_ns` into `k` equal time segments and return
/// each segment's latencies, ascending. An operation belongs to the
/// segment in which it completed; one that completes after the deadline
/// counts in the last segment.
pub fn segment(samples: &[Sample], phase_ns: u64, k: usize) -> Vec<Vec<u64>> {
    let mut out = vec![Vec::new(); k];
    let width = (phase_ns / k as u64).max(1);
    for s in samples {
        let ix = ((s.done_ns / width) as usize).min(k - 1);
        out[ix].push(s.latency_ns);
    }
    for seg in &mut out {
        seg.sort_unstable();
    }
    out
}

/// Per-segment rate (operations per second) and latency percentile (µs),
/// each reported as the median over segments.
pub fn segment_summary(
    samples: &[Sample],
    phase_ns: u64,
    k: usize,
    pcts: &[f64],
) -> (Estimate, Vec<Estimate>) {
    let segs = segment(samples, phase_ns, k);
    let seg_s = phase_ns as f64 / k as f64 / 1e9;
    let rates: Vec<f64> = segs.iter().map(|s| s.len() as f64 / seg_s).collect();
    let lat = pcts
        .iter()
        .map(|&p| {
            let per: Vec<f64> = segs
                .iter()
                .filter(|s| !s.is_empty())
                .map(|s| percentile(s, p) as f64 / 1e3)
                .collect();
            Estimate::median_of(&per)
        })
        .collect();
    (Estimate::median_of(&rates), lat)
}

/// Percentile (µs) over a whole phase, for samples too few to segment.
pub fn whole_percentile_us(samples: &[Sample], pct: f64) -> f64 {
    let mut lat: Vec<u64> = samples.iter().map(|s| s.latency_ns).collect();
    lat.sort_unstable();
    percentile(&lat, pct) as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.1), 1);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn interpolated_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(lower_quartile(&[1.0, 2.0, 3.0, 4.0, 5.0]), 2.0);
        assert_eq!(lower_quartile(&[1.0, 2.0]), 1.25);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn segments_split_by_completion_time() {
        let samples: Vec<Sample> = (0..10)
            .map(|i| Sample {
                done_ns: i * 100 + 50,
                latency_ns: 10 + i,
            })
            .collect();
        let segs = segment(&samples, 1000, 5);
        assert_eq!(segs.iter().map(Vec::len).collect::<Vec<_>>(), [2; 5]);
        assert_eq!(segs[4], vec![18, 19]);
        // Completion after the deadline lands in the last segment.
        let late = [Sample {
            done_ns: 5000,
            latency_ns: 1,
        }];
        assert_eq!(segment(&late, 1000, 5)[4], vec![1]);
    }

    #[test]
    fn segment_summary_reports_medians() {
        // 5 segments of 1 s; segment i holds i+1 operations of latency (i+1) µs.
        let mut samples = Vec::new();
        for seg in 0..5u64 {
            for _ in 0..=seg {
                samples.push(Sample {
                    done_ns: seg * 1_000_000_000 + 1,
                    latency_ns: (seg + 1) * 1000,
                });
            }
        }
        let (rate, lat) = segment_summary(&samples, 5_000_000_000, 5, &[50.0]);
        assert_eq!(rate.value, 3.0);
        assert_eq!((rate.lo, rate.hi), (1.0, 5.0));
        assert_eq!(lat[0].value, 3.0);
    }

    #[test]
    fn rng_is_reproducible_and_shuffles() {
        let mut a = Rng::fork(9, 0);
        let mut b = Rng::fork(9, 0);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut v: Vec<u32> = (0..50).collect();
        a.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted);
        assert_ne!(Rng::fork(1, 1).next_u64(), Rng::fork(1, 2).next_u64());
    }
}
