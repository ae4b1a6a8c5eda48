//! Order statistics over timing samples.

/// Median of `v` (sorts it in place); 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile `q` in `[0, 1]` of `v` (sorts it in place);
/// 0 for an empty slice.
pub fn percentile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Geometric mean of positive values; 0 if there are none.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0usize);
    for v in values.into_iter().filter(|v| *v > 0.0) {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// A fixed-size uniform sample of a stream (reservoir sampling). Its
/// buffer is allocated and touched up front, so the benchmark's own
/// memory does not grow with the number of operations a run completes.
pub struct Reservoir {
    buf: Vec<f64>,
    len: usize,
    seen: u64,
    rng: lb_chaos::SplitMix64,
}

impl Reservoir {
    /// An empty reservoir keeping up to `cap` values; `seed` drives the
    /// replacement choices.
    pub fn new(cap: usize, seed: u64) -> Reservoir {
        Reservoir {
            buf: vec![-1.0; cap.max(1)],
            len: 0,
            seen: 0,
            rng: lb_chaos::SplitMix64::new(seed),
        }
    }

    /// Offer one value.
    pub fn push(&mut self, v: f64) {
        self.seen += 1;
        if self.len < self.buf.len() {
            self.buf[self.len] = v;
            self.len += 1;
        } else {
            let j = self.rng.below(self.seen) as usize;
            if j < self.buf.len() {
                self.buf[j] = v;
            }
        }
    }

    /// Values offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The kept sample.
    pub fn values(&self) -> &[f64] {
        &self.buf[..self.len]
    }
}

/// Nanoseconds to the given unit divisor, as `f64`.
pub fn ns_to(ns: u64, per: f64) -> f64 {
    ns as f64 / per
}

/// Nanoseconds per microsecond / millisecond / second.
pub const US: f64 = 1e3;
/// See [`US`].
pub const MS: f64 = 1e6;
/// See [`US`].
pub const S: f64 = 1e9;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&mut v), 3.0);
        assert_eq!(percentile(&mut v, 0.99), 5.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(median(&mut []), 0.0);
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean([]), 0.0);
    }

    #[test]
    fn reservoir_keeps_a_bounded_sample() {
        let mut r = Reservoir::new(100, 1);
        for i in 0..10_000 {
            r.push(f64::from(i));
        }
        assert_eq!(r.seen(), 10_000);
        assert_eq!(r.values().len(), 100);
        let mut v = r.values().to_vec();
        let m = median(&mut v);
        assert!((2_000.0..8_000.0).contains(&m), "median {m}");
    }
}
