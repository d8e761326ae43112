//! Exact latency recording.
//!
//! Every op of a run is recorded, so percentiles are exact order
//! statistics rather than bucket edges: nanosecond counts below
//! [`DIRECT`] go into a dense count array, and the rare slower samples
//! (admission stalls, preemptions) are kept raw.

/// Latencies below this many nanoseconds are counted in a dense array.
const DIRECT: usize = 1 << 16;

/// Exact recorder of nanosecond latencies.
#[derive(Clone)]
pub struct Latencies {
    direct: Vec<u32>,
    slow: Vec<u64>,
    n: u64,
    sum_ns: u128,
}

impl Default for Latencies {
    fn default() -> Self {
        Self {
            direct: vec![0; DIRECT],
            slow: Vec::new(),
            n: 0,
            sum_ns: 0,
        }
    }
}

impl Latencies {
    /// Record one sample.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        match self.direct.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.slow.push(ns),
        }
        self.n += 1;
        self.sum_ns += ns as u128;
    }

    /// Fold another recorder into this one.
    pub fn merge(&mut self, other: &Latencies) {
        for (a, b) in self.direct.iter_mut().zip(&other.direct) {
            *a += b;
        }
        self.slow.extend_from_slice(&other.slow);
        self.n += other.n;
        self.sum_ns += other.sum_ns;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of all samples, in nanoseconds.
    pub fn sum_ns(&self) -> u128 {
        self.sum_ns
    }

    /// Mean in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.n as f64
        }
    }

    /// Nearest-rank quantile `q` in nanoseconds (0 when empty).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (ns, &c) in self.direct.iter().enumerate() {
            seen += c as u64;
            if seen >= rank {
                return ns as u64;
            }
        }
        let mut slow = self.slow.clone();
        slow.sort_unstable();
        slow[(rank - seen - 1) as usize]
    }

    /// Samples strictly above the `q` quantile — the support behind a
    /// reported tail percentile.
    pub fn beyond(&self, q: f64) -> u64 {
        self.n - ((q * self.n as f64).ceil() as u64).min(self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_order_statistics() {
        let mut l = Latencies::default();
        for ns in (1..=1000).rev() {
            l.record(ns * 100); // spans the dense array and the slow list
        }
        assert_eq!(l.count(), 1000);
        assert_eq!(l.quantile_ns(0.5), 50_000);
        assert_eq!(l.quantile_ns(0.99), 99_000);
        assert_eq!(l.quantile_ns(1.0), 100_000);
        assert_eq!(l.beyond(0.99), 10);
        let mut m = Latencies::default();
        m.merge(&l);
        m.merge(&l);
        assert_eq!(m.quantile_ns(0.5), 50_000);
        assert_eq!(m.mean_ns(), 50_050.0);
    }
}
