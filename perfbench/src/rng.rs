//! The benchmark's own seeded generator. Every op sequence is a pure
//! function of the workload seed through this type, so a sequence never
//! moves when a library's RNG changes.

/// SplitMix64: tiny, fast, and fully specified by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5851_F42D_4C95_7F2D)
    }

    /// An independent stream for one purpose (`tag`) of one seed.
    pub fn stream(seed: u64, tag: &str) -> Self {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for b in tag.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
        Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// A fixed op mix, repeated in cycles whose order is shuffled per
/// cycle: every cycle holds each op kind exactly its share of times, so
/// the shares hold at any run length to within one cycle.
pub fn shuffled_cycles<T: Clone>(rng: &mut Rng, cycle: &[(T, usize)], cycles: usize) -> Vec<T> {
    let mut out = Vec::new();
    for _ in 0..cycles {
        let mut one: Vec<T> = cycle
            .iter()
            .flat_map(|(op, n)| std::iter::repeat(op.clone()).take(*n))
            .collect();
        rng.shuffle(&mut one);
        out.extend(one);
    }
    out
}

/// FNV-1a over text: the digest the schedule-pinning tests use.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::stream(7, "x").next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            Rng::stream(7, "x").next_u64(),
            Rng::stream(7, "y").next_u64()
        );
        assert_ne!(
            Rng::stream(7, "x").next_u64(),
            Rng::stream(8, "x").next_u64()
        );
    }

    #[test]
    fn cycles_keep_exact_shares() {
        let mut rng = Rng::new(1);
        let ops = shuffled_cycles(&mut rng, &[('a', 3), ('b', 1)], 5);
        assert_eq!(ops.len(), 20);
        assert_eq!(ops.iter().filter(|c| **c == 'a').count(), 15);
        for cycle in ops.chunks(4) {
            assert_eq!(cycle.iter().filter(|c| **c == 'b').count(), 1);
        }
    }

    #[test]
    fn unit_stays_in_range() {
        let mut rng = Rng::new(3);
        for _ in 0..10_000 {
            assert!((0.0..1.0).contains(&rng.unit()));
        }
    }
}
