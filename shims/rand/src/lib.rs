//! Offline stand-in for `rand` (0.9-era API surface).
//!
//! Provides exactly what this workspace uses: [`rngs::StdRng`],
//! [`SeedableRng::seed_from_u64`], and [`Rng::random_range`] /
//! [`Rng::random_bool`] over integer and float ranges. The generator is
//! xorshift64*, which is deterministic, seedable, and statistically far
//! better than the survey-jitter use case needs. Not cryptographic.

use std::ops::{Range, RangeInclusive};

/// Stand-in for `rand::Rng`.
pub trait Rng {
    /// The next raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform sample from `range`.
    fn random_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!(
            (0.0..=1.0).contains(&p),
            "probability must be in [0, 1], got {p}"
        );
        unit_f64(self.next_u64()) < p
    }
}

/// Stand-in for `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Constructs the generator from a 64-bit seed.
    fn seed_from_u64(state: u64) -> Self;
}

/// Ranges a uniform value can be drawn from.
pub trait SampleRange<T> {
    /// Draws one uniform sample.
    fn sample_from<G: Rng>(self, rng: &mut G) -> T;
}

/// Maps 64 random bits to [0, 1).
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl SampleRange<f64> for Range<f64> {
    fn sample_from<G: Rng>(self, rng: &mut G) -> f64 {
        assert!(self.start < self.end, "empty f64 range");
        let u = unit_f64(rng.next_u64());
        let v = self.start + u * (self.end - self.start);
        // Rounding can land exactly on `end`; nudge back inside.
        if v >= self.end {
            self.end - (self.end - self.start) * f64::EPSILON
        } else {
            v
        }
    }
}

macro_rules! int_range {
    ($($ty:ty),* $(,)?) => {
        $(
            impl SampleRange<$ty> for Range<$ty> {
                fn sample_from<G: Rng>(self, rng: &mut G) -> $ty {
                    assert!(self.start < self.end, "empty integer range");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let r = (u128::from(rng.next_u64()) % span) as i128;
                    (self.start as i128 + r) as $ty
                }
            }

            impl SampleRange<$ty> for RangeInclusive<$ty> {
                fn sample_from<G: Rng>(self, rng: &mut G) -> $ty {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty inclusive range");
                    let span = (end as i128 - start as i128) as u128 + 1;
                    let r = (u128::from(rng.next_u64()) % span) as i128;
                    (start as i128 + r) as $ty
                }
            }
        )*
    };
}

int_range!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

/// Batched standard-normal sampling (stand-in for `rand_distr`'s
/// `StandardNormal`, shaped for block fills).
pub mod normal {
    use super::Rng;

    /// Samples per transform block: big enough to amortise the loop
    /// split, small enough to stay in L1.
    const BLOCK: usize = 128;

    /// Ziggurat layer count. 256 keeps the rejection rate below ~1.6 %,
    /// so the `ln`/`exp` fallback paths are off the hot path entirely.
    const LAYERS: usize = 256;

    /// Right edge of the ziggurat base layer for `LAYERS` = 256.
    const ZIG_R: f64 = 3.654_152_885_361_009;

    /// Area of each ziggurat layer (tail included in the base strip).
    const ZIG_V: f64 = 4.928_673_233_974_655e-3;

    /// Precomputed layer tables: `x[i]` is the right edge of layer `i`
    /// (strictly decreasing, `x[0] = V/f(R) > R`, `x[LAYERS] = 0`), and
    /// `f[i] = exp(-x[i]²/2)` (strictly increasing).
    struct ZigTables {
        x: [f64; LAYERS + 1],
        f: [f64; LAYERS + 1],
    }

    fn zig_tables() -> &'static ZigTables {
        use std::sync::OnceLock;
        static TABLES: OnceLock<ZigTables> = OnceLock::new();
        TABLES.get_or_init(|| {
            let pdf = |x: f64| (-0.5 * x * x).exp();
            let mut x = [0.0_f64; LAYERS + 1];
            x[0] = ZIG_V / pdf(ZIG_R);
            x[1] = ZIG_R;
            for i in 2..LAYERS {
                // Invert f at the height stacking one more layer of
                // area V on top of the previous right edge.
                x[i] = (-2.0 * (ZIG_V / x[i - 1] + pdf(x[i - 1])).ln()).sqrt();
            }
            x[LAYERS] = 0.0;
            let mut f = [0.0_f64; LAYERS + 1];
            for i in 0..=LAYERS {
                f[i] = pdf(x[i]);
            }
            ZigTables { x, f }
        })
    }

    /// Fills `out` with independent standard-normal samples via the
    /// Marsaglia–Tsang ziggurat: one `next_u64`, one table compare, and
    /// two multiplies per sample on the ~98 % accept path — no
    /// transcendentals. Exactly N(0, 1) distributed and fully
    /// deterministic for a given generator state; filling a buffer in
    /// one call or in consecutive calls split at multiples of the
    /// 128-sample internal block yields the same stream.
    ///
    /// Bit layout per draw: bits 0–7 select the layer, bit 8 the sign,
    /// bits 11–63 the 53-bit uniform position inside the layer — the
    /// three fields never overlap.
    pub fn fill_standard_normal_fast<G: Rng>(rng: &mut G, out: &mut [f64]) {
        let tab = zig_tables();
        let mut bits = [0_u64; BLOCK];
        for chunk in out.chunks_mut(BLOCK) {
            // Draw the whole block first: the RNG's serial dependency
            // chain runs back-to-back, decoupled from the table loads
            // and multiplies of the transform loop below.
            for b in bits[..chunk.len()].iter_mut() {
                *b = rng.next_u64();
            }
            for (slot, &b) in chunk.iter_mut().zip(&bits) {
                let i = (b & 0xFF) as usize;
                let u = (b >> 11) as f64 * ZIG_SCALE;
                let x = u * tab.x[i];
                // Branch-free sign: draw bit 8 lands on the IEEE sign
                // bit, equivalent to `zig_sign(b) * x` for finite `x`.
                let signed = f64::from_bits(x.to_bits() ^ ((b & 0x100) << 55));
                // The rare miss (≤ ~1.6 %) is marked and resolved
                // after the loop; NaN is unambiguous because the
                // sampler itself never produces it.
                *slot = if x < tab.x[i + 1] { signed } else { f64::NAN };
            }
            for (slot, &b) in chunk.iter_mut().zip(&bits) {
                if slot.is_nan() {
                    *slot = zig_resolve(rng, tab, b);
                }
            }
        }
    }

    const ZIG_SCALE: f64 = 1.0 / (1u64 << 53) as f64;

    /// Sign bit of one ziggurat draw (bit 8 — outside both the layer
    /// index and the 53-bit position).
    fn zig_sign(bits: u64) -> f64 {
        if bits & 0x100 == 0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Resolves a draw whose rectangle test missed: wedge rejection on
    /// the original bits, then fresh per-sample ziggurat rounds until
    /// acceptance.
    fn zig_resolve<G: Rng>(rng: &mut G, tab: &ZigTables, first: u64) -> f64 {
        let mut bits = first;
        loop {
            let i = (bits & 0xFF) as usize;
            let u = (bits >> 11) as f64 * ZIG_SCALE;
            let x = u * tab.x[i];
            if x < tab.x[i + 1] {
                return zig_sign(bits) * x;
            }
            if i == 0 {
                // Base strip miss: exact Marsaglia tail beyond R.
                return zig_sign(bits) * zig_tail(rng, tab.x[1]);
            }
            // Wedge: uniform height inside the layer band, accept
            // under the density.
            let h = (rng.next_u64() >> 11) as f64 * ZIG_SCALE;
            if tab.f[i + 1] + h * (tab.f[i] - tab.f[i + 1]) < (-0.5 * x * x).exp() {
                return zig_sign(bits) * x;
            }
            bits = rng.next_u64();
        }
    }

    /// Exact sample from the normal tail `x > r`, via Marsaglia's
    /// exponential-rejection scheme.
    fn zig_tail<G: Rng>(rng: &mut G, r: f64) -> f64 {
        const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
        loop {
            // Open-closed uniforms keep `ln` away from zero.
            let u1 = ((rng.next_u64() >> 11) + 1) as f64 * SCALE;
            let u2 = ((rng.next_u64() >> 11) + 1) as f64 * SCALE;
            let x = -u1.ln() / r;
            let y = -u2.ln();
            if y + y >= x * x {
                return r + x;
            }
        }
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// Stand-in for `rand::rngs::StdRng`: xorshift64*.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            // xorshift64* (Vigna); period 2^64 − 1.
            let mut x = self.state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.state = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            // A zero state would trap xorshift at zero; splitmix the seed.
            let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            Self { state: z.max(1) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_a_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: f64 = rng.random_range(0.75..1.33);
            assert!((0.75..1.33).contains(&x));
            let n: i32 = rng.random_range(8..=15);
            assert!((8..=15).contains(&n));
            let u: usize = rng.random_range(0..3);
            assert!(u < 3);
        }
    }

    /// The ziggurat sampler is an exact standard normal: first four
    /// moments and the 1/2/3σ tail masses must match N(0, 1) closely on
    /// a large deterministic sample.
    #[test]
    fn ziggurat_matches_the_standard_normal() {
        let mut rng = StdRng::seed_from_u64(2024);
        let mut samples = vec![0.0; 400_000];
        super::normal::fill_standard_normal_fast(&mut rng, &mut samples);
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
        let skew = samples.iter().map(|s| s.powi(3)).sum::<f64>() / n;
        let kurt = samples.iter().map(|s| s.powi(4)).sum::<f64>() / n;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.01, "variance {var}");
        assert!(skew.abs() < 0.02, "skewness {skew}");
        assert!((kurt - 3.0).abs() < 0.1, "kurtosis {kurt}");
        for (sigma, expect) in [(1.0, 0.3173), (2.0, 0.0455), (3.0, 0.0027)] {
            let got = samples.iter().filter(|s| s.abs() > sigma).count() as f64 / n;
            assert!(
                (got - expect).abs() < expect * 0.12 + 2e-4,
                "P(|x| > {sigma}) = {got}, want ~{expect}"
            );
        }
        // The Marsaglia tail path must actually fire and stay exact:
        // the largest draws sit beyond the base-layer edge.
        let max = samples.iter().cloned().fold(0.0_f64, f64::max);
        assert!(max > 3.654_152_885_361_009, "max {max}");
        assert!(max < 7.0, "max {max} is implausibly large for 400k draws");
    }

    /// Same generator state ⇒ same ziggurat stream on every call, and
    /// filling in one call equals filling in calls split at an internal
    /// block boundary (how the frame simulator consumes it: one call
    /// per fixed-size pixel span).
    #[test]
    fn ziggurat_stream_is_deterministic_and_block_splittable() {
        let mut whole = vec![0.0; 301];
        let mut rng = StdRng::seed_from_u64(5);
        super::normal::fill_standard_normal_fast(&mut rng, &mut whole);

        let mut again = vec![0.0; 301];
        let mut rng = StdRng::seed_from_u64(5);
        super::normal::fill_standard_normal_fast(&mut rng, &mut again);
        assert_eq!(whole, again, "replay must be identical");

        let mut split = vec![0.0; 301];
        let mut rng = StdRng::seed_from_u64(5);
        let (a, b) = split.split_at_mut(128);
        super::normal::fill_standard_normal_fast(&mut rng, a);
        super::normal::fill_standard_normal_fast(&mut rng, b);
        for (i, (x, y)) in whole.iter().zip(split.iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "sample {i}");
        }
    }

    #[test]
    fn bool_probability_is_plausible() {
        let mut rng = StdRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| rng.random_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits}");
    }
}
