//! Percentile, quartile and burst arithmetic. Every reported latency is
//! a median over one homogeneous op class; cheap ops are timed per burst
//! and reported per item.

/// The `p`-quantile (`0.0..=1.0`) of `sorted` by linear interpolation
/// between closest ranks; `None` on an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let pos = p.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    values
}

pub fn median(values: &[f64]) -> Option<f64> {
    percentile(&sorted(values.to_vec()), 0.5)
}

/// The three cut points of Python's `statistics.quantiles(values, n=4)`
/// (the default *exclusive* method), which is what the driver uses for
/// a metric's spread. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values.to_vec());
    let n = data.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median: the spread the driver
/// holds against a metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// One timed sample of an op class: `items` operations took `ns` in
/// total (a burst of 64 reads is one sample of 64 items; a commit is one
/// sample of one item).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    pub ns: u64,
    pub items: u32,
}

impl Sample {
    /// Time per item in microseconds.
    pub fn per_item_us(self) -> f64 {
        self.ns as f64 / self.items.max(1) as f64 / 1_000.0
    }
}

/// Summary of one class's samples: per-item p50 / p99 in µs, the highest
/// percentile reported only when at least ten samples lie beyond it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    pub samples: usize,
    pub items: u64,
    pub p50_us: f64,
    pub p99_us: f64,
}

pub fn summarize(samples: &[Sample]) -> Summary {
    let per_item = sorted(samples.iter().map(|s| s.per_item_us()).collect());
    Summary {
        samples: samples.len(),
        items: samples.iter().map(|s| s.items as u64).sum(),
        p50_us: percentile(&per_item, 0.5).unwrap_or(0.0),
        p99_us: if per_item.len() >= 1_000 {
            percentile(&per_item, 0.99).unwrap_or(0.0)
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), Some(10.0));
        assert_eq!(percentile(&v, 1.0), Some(40.0));
        assert_eq!(percentile(&v, 0.5), Some(25.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 3, 4, 9, 20], n=4) == [2.0, 4.0, 14.5]
        assert_eq!(
            quartiles(&[20.0, 1.0, 9.0, 3.0, 4.0]),
            Some([2.0, 4.0, 14.5])
        );
        assert_eq!(quartiles(&[5.0]), None);
        let s = spread(&v).unwrap();
        assert!((s - 1.0).abs() < 1e-12, "{s}");
    }

    #[test]
    fn burst_time_is_divided_by_its_items() {
        let burst = Sample {
            ns: 128_000,
            items: 64,
        };
        assert_eq!(burst.per_item_us(), 2.0);
        let single = Sample {
            ns: 5_000,
            items: 1,
        };
        assert_eq!(single.per_item_us(), 5.0);
        let s = summarize(&[
            burst,
            single,
            Sample {
                ns: 192_000,
                items: 64,
            },
        ]);
        assert_eq!((s.samples, s.items), (3, 129));
        assert_eq!(s.p50_us, 3.0);
        assert_eq!(s.p99_us, 0.0, "no tail from three samples");
    }
}
