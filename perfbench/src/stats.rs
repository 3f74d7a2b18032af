//! Order statistics over timing samples.

/// Nearest-rank quantile of `samples` (`q` in `[0, 1]`); 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn p99(samples: &[f64]) -> f64 {
    quantile(samples, 0.99)
}

/// Per-operation latencies kept as whole nanoseconds, so that millions of
/// samples stay small.
#[derive(Debug, Default, Clone)]
pub struct Latencies(Vec<u32>);

impl Latencies {
    pub fn with_capacity(n: usize) -> Self {
        Latencies(Vec::with_capacity(n))
    }

    pub fn push(&mut self, elapsed: std::time::Duration) {
        self.0.push(u32::try_from(elapsed.as_nanos()).unwrap_or(u32::MAX));
    }

    /// Keeps, operation by operation, the lower of this and `round`'s
    /// latency: both list the same operations in the same order.
    pub fn keep_min(&mut self, round: &Latencies) {
        if self.0.is_empty() {
            self.0.clone_from(&round.0);
        }
        assert_eq!(self.0.len(), round.0.len(), "rounds of unequal length");
        for (kept, &new) in self.0.iter_mut().zip(&round.0) {
            *kept = (*kept).min(new);
        }
    }

    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// The mean of the samples ranked within half a percentile of
    /// quantile `q`, in milliseconds. Latencies are whole nanoseconds, and
    /// the fastest latencies of like operations often tie, so a single
    /// order statistic would read the same integer run after run; the
    /// band's mean keeps every digit that was measured.
    pub fn quantile_band_ms(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        let n = sorted.len() as f64;
        let first = ((q - 0.005) * n).round().clamp(0.0, n - 1.0) as usize;
        let last = ((q + 0.005) * n).round().clamp(1.0, n) as usize;
        let band = &sorted[first..last.max(first + 1)];
        band.iter().map(|&ns| f64::from(ns)).sum::<f64>() / band.len() as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&samples), 50.0);
        assert_eq!(p99(&samples), 99.0);
        assert_eq!(quantile(&samples, 1.0), 100.0);
        assert_eq!(median(&[]), 0.0);
        let mut lat = Latencies::default();
        for ms in [3u64, 1, 2] {
            lat.push(std::time::Duration::from_millis(ms));
        }
        assert_eq!(lat.quantile_band_ms(0.5), 2.0);
        let mut fastest = Latencies::default();
        fastest.keep_min(&lat);
        let mut other = Latencies::default();
        for ms in [1u64, 5, 1] {
            other.push(std::time::Duration::from_millis(ms));
        }
        fastest.keep_min(&other);
        assert_eq!(fastest.0, vec![1_000_000, 1_000_000, 1_000_000]);
        let mut spread = Latencies::default();
        for ns in 1..=1_000u64 {
            spread.push(std::time::Duration::from_nanos(ns * 1_000));
        }
        // Indices 495..505 of 1..=1000 µs hold 496..=505 µs: 500.5 µs.
        assert_eq!(spread.quantile_band_ms(0.5), 0.5005);
        assert_eq!(spread.quantile_band_ms(1.0), 0.998);
    }
}
