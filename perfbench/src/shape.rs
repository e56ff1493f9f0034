//! Seeded shape draws.
//!
//! [`PAPER_SEED`] selects the exact paper shape of every workload, whose
//! modeled output is pinned by the goldens under `golden/`. Any other seed
//! draws the shape parameters around the paper shape with [`Rng`], so two
//! commits can be compared on inputs that were not used while tuning.

/// The seed that runs the exact paper shapes and checks them against the
/// goldens.
pub const PAPER_SEED: u64 = 0;

/// SplitMix64: a small, fixed, dependency-free generator, so a seed draws
/// the same shape on every host and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// `base` scaled by a uniform factor in `[1 - frac, 1 + frac]`, rounded
    /// down to a multiple of `align` (at least one `align`).
    pub fn around(&mut self, base: u64, frac: f64, align: u64) -> u64 {
        let f = 1.0 - frac + 2.0 * frac * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let v = (base as f64 * f) as u64;
        (v / align).max(1) * align
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i as u64) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_repeat_per_seed_and_stay_in_range() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            let x = a.around(1000, 0.1, 1);
            assert_eq!(x, b.around(1000, 0.1, 1));
            assert!((900..=1100).contains(&x), "{x}");
            let r = a.range(3, 5);
            b.range(3, 5);
            assert!((3..=5).contains(&r));
        }
    }
}
