//! Seeded input generation: every key a map receives is made here.

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The SplitMix64 finalizer: a bijection on `u64` with good avalanche.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A per-purpose seed derived from the run seed, so streams for
/// different clients and set-ups never overlap.
pub fn derive(seed: u64, purpose: u64) -> u64 {
    mix(seed ^ mix(purpose.wrapping_add(0x51_7CC1_B727_220A)))
}

/// The value stored under `key`. Every insert of a key stores the same
/// value, so any value a read returns can be checked exactly.
pub fn value_of(key: u64) -> u64 {
    key.rotate_left(29) ^ 0x5555_5555_5555_5555
}

/// Zipf(`alpha`) ranks over `0..n` by inverse-CDF lookup in a table.
#[derive(Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, alpha: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut sum = 0.0;
        for r in 0..n {
            sum += 1.0 / ((r + 1) as f64).powf(alpha);
            cdf.push(sum);
        }
        for c in &mut cdf {
            *c /= sum;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_rank_zero_is_hottest() {
        let z = Zipf::new(1 << 10, 0.99);
        let mut rng = Rng::new(7);
        let mut counts = [0u32; 4];
        for _ in 0..100_000 {
            let r = z.sample(&mut rng) as usize;
            if r < 4 {
                counts[r] += 1;
            }
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[2] && counts[2] > counts[3]);
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = Rng::new(1);
        assert!((0..10_000).all(|_| rng.below(5) < 5));
    }
}
