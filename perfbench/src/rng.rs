//! Seeded input generation: every input a kernel receives is derived from
//! the benchmark's `--seed` through these generators, so one seed always
//! gives the same inputs.

/// A SplitMix64 stream: a counter advanced by the golden-ratio gamma and
/// finished by [`rma::splitmix64`].
#[derive(Debug, Clone)]
pub struct Rng(u64);

/// SplitMix64's counter increment.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl Rng {
    /// The stream `stream` of seed `seed` (independent streams per purpose).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let x = self.0;
        self.0 = x.wrapping_add(GAMMA);
        rma::splitmix64(x)
    }

    /// Uniform in `0..n`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..4)
            .scan(Rng::new(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(Rng::new(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..4)
            .scan(Rng::new(7, 2), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn matches_the_splitmix64_reference_stream() {
        let mut r = Rng(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(1, 0);
        assert!((0..1000).all(|_| r.below(13) < 13));
    }
}
