//! Seeded input generation. SplitMix64 keeps the benchmark free of
//! external crates and makes every input a pure function of
//! `(seed, stream)`.

/// A SplitMix64 generator.
pub struct Rng(u64);

impl Rng {
    /// Generator for one named input stream of a seed, so adding a draw
    /// to one stream never shifts another.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Exponential with the given mean (Poisson inter-arrival gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    /// Log-uniform in `[lo, hi]`.
    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo * (hi / lo).powf(self.unit())
    }

    /// Pareto with shape `alpha` on `[lo, hi]` (inverse-CDF draw).
    pub fn bounded_pareto(&mut self, alpha: f64, lo: f64, hi: f64) -> f64 {
        let u = self.unit();
        let r = (lo / hi).powf(alpha);
        lo / (1.0 - u * (1.0 - r)).powf(1.0 / alpha)
    }
}

/// Mean of the bounded Pareto distribution drawn by [`Rng::bounded_pareto`].
pub fn bounded_pareto_mean(alpha: f64, lo: f64, hi: f64) -> f64 {
    let r = (lo / hi).powf(alpha);
    alpha / (alpha - 1.0) * lo * (1.0 - (lo / hi).powf(alpha - 1.0)) / (1.0 - r)
}

/// Rounds a byte count down to the planner's 4-byte alignment, at least 4.
pub fn align4(n: f64) -> usize {
    ((n as usize) & !3).max(4)
}

/// Deterministic payload for a real-buffer PUT: one SplitMix64 word per
/// eight bytes, so a stale or shifted copy cannot match.
pub fn payload(op: u64, n: usize) -> Vec<u8> {
    let mut r = Rng::new(op, 0x7061_796c);
    let mut out = Vec::with_capacity(n + 8);
    while out.len() < n {
        out.extend_from_slice(&r.next_u64().to_le_bytes());
    }
    out.truncate(n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..8).map(|_| Rng::new(5, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(5, 1).next_u64(), Rng::new(5, 2).next_u64());
    }

    #[test]
    fn bounded_pareto_mean_matches_draws() {
        let (alpha, lo, hi) = (1.5, 1.0, 100.0);
        let mut r = Rng::new(9, 9);
        let n = 400_000;
        let mean = (0..n).map(|_| r.bounded_pareto(alpha, lo, hi)).sum::<f64>() / n as f64;
        let want = bounded_pareto_mean(alpha, lo, hi);
        assert!((mean / want - 1.0).abs() < 0.02, "{mean} vs {want}");
    }
}
