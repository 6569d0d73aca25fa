//! Small deterministic PRNGs.
//!
//! The simulators and workload generators need reproducible streams with no
//! allocation and no global state; SplitMix64 serves them.

/// SplitMix64: a tiny, high-quality 64-bit generator.
///
/// Passes BigCrush when used as a stream; it drives the deterministic
/// simulators and seeds the kernels' input data.
///
/// # Examples
///
/// ```
/// use tpm_sync::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. All seeds are valid.
    pub const fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Creates a generator positioned as if `n` values had already been
    /// drawn from `new(seed)` — an O(1) jump, possible because the state
    /// advances by a fixed constant per draw.
    ///
    /// This is what lets parallel first-touch initialization reproduce a
    /// sequential stream exactly: each chunk seeks to its start index and
    /// generates only its own elements.
    ///
    /// # Examples
    ///
    /// ```
    /// use tpm_sync::SplitMix64;
    ///
    /// let mut seq = SplitMix64::new(7);
    /// for _ in 0..1000 { seq.next_u64(); }
    /// let mut jumped = SplitMix64::new_at(7, 1000);
    /// assert_eq!(seq.next_u64(), jumped.next_u64());
    /// ```
    pub const fn new_at(seed: u64, n: u64) -> Self {
        Self {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(n)),
        }
    }

    /// Returns the next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniform value in `[0, bound)`. `bound` must be nonzero.
    ///
    /// Uses the widening-multiply technique (Lemire); bias is negligible for
    /// the bounds used here (worker counts, workload sizes).
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_varies() {
        let mut r = SplitMix64::new(1);
        let a = r.next_u64();
        let b = r.next_u64();
        assert_ne!(a, b);
        let mut r2 = SplitMix64::new(1);
        assert_eq!(r2.next_u64(), a);
    }

    #[test]
    fn new_at_matches_sequential_draws() {
        let mut seq = SplitMix64::new(0xDEADBEEF);
        let draws: Vec<u64> = (0..100).map(|_| seq.next_u64()).collect();
        for start in [0usize, 1, 17, 64, 99] {
            let mut jumped = SplitMix64::new_at(0xDEADBEEF, start as u64);
            assert_eq!(jumped.next_u64(), draws[start], "jump to {start}");
        }
    }

    #[test]
    fn bounded_stays_in_range() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            assert!(r.next_bounded(13) < 13);
        }
    }

    #[test]
    fn bounded_hits_every_residue() {
        let mut r = SplitMix64::new(3);
        let mut seen = [false; 8];
        for _ in 0..10_000 {
            seen[r.next_bounded(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(99);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }
}
