//! ADC quantization: the digital side of the noise model.
//!
//! Every analog-to-digital conversion rounds the continuous signal to
//! one of `2^bits` levels. The rounding error is the one noise source
//! that is *intrinsic* to the architecture rather than to a circuit,
//! so the functional simulation derives it from a component's declared
//! converter resolution instead of asking for a descriptor:
//!
//! ```text
//! LSB = 1 / 2^bits (of full scale),   σ_q = LSB / sqrt(12)
//! ```
//!
//! (the classic uniform-quantization result: the error of an unclipped
//! mid-tread quantizer is uniform over `±LSB/2`).
//!
//! All values here are normalised to full scale: signals live in
//! `[0, 1]` and noise amplitudes are fractions of full scale, matching
//! `camj_analog::noise::NoiseSource::rms_fraction`.

/// The widest converter resolution the quantization model accepts,
/// matching `camj_analog::noise::MAX_RESOLUTION_BITS`.
pub const MAX_QUANTIZE_BITS: u32 = 32;

fn assert_bits(bits: u32) {
    assert!(bits > 0, "conversion needs at least 1 bit");
    assert!(
        bits <= MAX_QUANTIZE_BITS,
        "conversion resolution must be at most {MAX_QUANTIZE_BITS} bits, got {bits}"
    );
}

/// One least-significant bit as a fraction of full scale, `2^-bits`.
///
/// # Panics
///
/// Panics if `bits` is zero or exceeds [`MAX_QUANTIZE_BITS`].
#[must_use]
pub fn lsb_fraction(bits: u32) -> f64 {
    assert_bits(bits);
    (0.5f64).powi(bits as i32)
}

/// RMS quantization noise as a fraction of full scale,
/// `LSB / sqrt(12)`.
///
/// # Panics
///
/// Panics if `bits` is zero or exceeds [`MAX_QUANTIZE_BITS`].
#[must_use]
pub fn quantization_noise_rms(bits: u32) -> f64 {
    lsb_fraction(bits) / 12f64.sqrt()
}

/// Quantizes a full-scale-normalised `value` onto the uniform
/// mid-tread grid of step [`lsb_fraction`]`(bits)` (values round to
/// the nearest level; out-of-range inputs clip to the rails first, as
/// a saturating converter does). The rounding error is therefore
/// bounded by half an LSB, consistent with [`quantization_noise_rms`].
///
/// Deterministic and branch-free in the data, so a simulated frame
/// quantizes byte-identically on every run and thread count.
///
/// # Panics
///
/// Panics if `bits` is zero or exceeds [`MAX_QUANTIZE_BITS`], or
/// `value` is NaN.
#[must_use]
pub fn quantize(value: f64, bits: u32) -> f64 {
    assert_bits(bits);
    assert!(!value.is_nan(), "cannot quantize NaN");
    let step = lsb_fraction(bits);
    ((value.clamp(0.0, 1.0) / step).round() * step).min(1.0)
}

/// The mid-tread grid of one bit width, resolved once: the step and its
/// reciprocal, so quantizing a value costs no `powi` and no division.
/// `step` is an exact power of two, so `value / step` and
/// `value * (1/step)` round identically and [`Quantizer::apply`] is
/// bit-identical to [`quantize`].
///
/// The rounding needs no library call (targets without a rounding
/// instruction pay one for `f64::round`): a scaled value lies in
/// `[0, 2^32]`, where adding and removing 2^52 rounds it to the nearest
/// integer, ties to even, and a tie that went down is moved up — half
/// away from zero, as `round` rounds. A zero keeps its sign, as
/// under `round`, and no result exceeds full scale, so the final clip
/// of [`quantize`] never applies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    step: f64,
    inv_step: f64,
}

impl Quantizer {
    /// The grid of `bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or exceeds [`MAX_QUANTIZE_BITS`].
    #[must_use]
    pub fn new(bits: u32) -> Self {
        let step = lsb_fraction(bits);
        Quantizer {
            step,
            inv_step: 1.0 / step,
        }
    }

    /// [`quantize`] of `value` on this grid.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    #[inline]
    #[must_use]
    pub fn apply(self, value: f64) -> f64 {
        assert!(!value.is_nan(), "cannot quantize NaN");
        /// 2^52: from here up, the spacing of `f64` values is 1.
        const INTEGER_SPACING: f64 = 4_503_599_627_370_496.0;
        let scaled = value.clamp(0.0, 1.0) * self.inv_step;
        let even = (scaled + INTEGER_SPACING) - INTEGER_SPACING;
        let rounded = if scaled - even == 0.5 {
            even + 1.0
        } else {
            even
        };
        rounded.copysign(scaled) * self.step
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The resolved grid is an optimization, not a new definition:
    /// every value must come out bit-for-bit as the scalar `quantize`.
    #[test]
    fn quantizer_matches_scalar_bitwise() {
        for bits in [1, 2, 8, 10, 12, MAX_QUANTIZE_BITS] {
            let mut values: Vec<f64> = (0..4096)
                .map(|i| -0.1 + 1.3 * (i as f64) / 4095.0)
                .collect();
            values.extend([0.0, -0.0, 1.0, -5.0, 7.0, f64::INFINITY, f64::NEG_INFINITY]);
            // Every exact half-step, and its neighbours one ulp away.
            let step = lsb_fraction(bits);
            for k in (0..1u64 << bits.min(12)).map(|k| k as f64) {
                let half = (k + 0.5) * step;
                let bits = half.to_bits();
                values.extend([
                    half,
                    f64::from_bits(bits - 1),
                    f64::from_bits(bits + 1),
                    k * step,
                ]);
            }
            // Arbitrary bit patterns across and beyond the full scale.
            let mut state = 0x9e37_79b9_7f4a_7c15_u64;
            for _ in 0..4096 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let v = f64::from_bits(state >> 2);
                if !v.is_nan() {
                    values.push(v);
                }
                values.push((state >> 11) as f64 / (1u64 << 53) as f64 * 1.5 - 0.25);
            }
            let q = Quantizer::new(bits);
            for v in &values {
                assert_eq!(
                    q.apply(*v).to_bits(),
                    quantize(*v, bits).to_bits(),
                    "bits {bits}, value {v}"
                );
            }
        }
    }

    #[test]
    fn lsb_halves_per_bit() {
        assert_eq!(lsb_fraction(1), 0.5);
        assert_eq!(lsb_fraction(8), 1.0 / 256.0);
        assert!((lsb_fraction(10) / lsb_fraction(11) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rms_matches_uniform_error_statistics() {
        // 10-bit: LSB ≈ 977 ppm, σ_q ≈ 282 ppm.
        let rms = quantization_noise_rms(10);
        assert!((rms - (1.0 / 1024.0) / 12f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn quantize_is_idempotent_and_clipping() {
        for bits in [1, 4, 8, 12] {
            for v in [0.0, 0.123, 0.5, 0.9999, 1.0] {
                let q = quantize(v, bits);
                assert_eq!(quantize(q, bits), q, "bits={bits} v={v}");
                assert!((q - v).abs() <= lsb_fraction(bits) / 2.0 + 1e-12);
            }
        }
        assert_eq!(quantize(-0.3, 8), 0.0);
        assert_eq!(quantize(1.7, 8), 1.0);
    }

    /// A value already on a grid of `a` bits is a fixed point of every
    /// grid of `b >= a` bits, bit for bit: the coarser grid's levels are
    /// finer-grid levels, and power-of-two scaling is exact. The
    /// functional DAG skips such requantisations.
    #[test]
    fn coarser_grid_values_are_fixed_points_of_finer_grids() {
        for a in [1, 3, 8, 10, 16] {
            let levels = 1u64 << a;
            for k in (0..=levels).step_by((levels / 64).max(1) as usize) {
                let v = quantize(k as f64 / levels as f64, a);
                for b in a..=MAX_QUANTIZE_BITS {
                    assert_eq!(
                        Quantizer::new(b).apply(v).to_bits(),
                        v.to_bits(),
                        "{a} -> {b} bits, level {k}"
                    );
                }
            }
        }
        assert_eq!(Quantizer::new(8).apply(-0.0).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn one_bit_is_a_comparator() {
        assert_eq!(quantize(0.2, 1), 0.0);
        assert_eq!(quantize(0.8, 1), 1.0);
    }

    #[test]
    fn measured_error_matches_predicted_rms() {
        // Sweep a dense ramp and compare the empirical RMS error to
        // LSB/sqrt(12); they agree within a few percent.
        let bits = 8;
        let n = 100_000;
        let mse: f64 = (0..n)
            .map(|i| {
                let v = (i as f64 + 0.5) / n as f64;
                let e = quantize(v, bits) - v;
                e * e
            })
            .sum::<f64>()
            / n as f64;
        let measured = mse.sqrt();
        let predicted = quantization_noise_rms(bits);
        assert!(
            (measured / predicted - 1.0).abs() < 0.05,
            "measured {measured}, predicted {predicted}"
        );
    }

    #[test]
    #[should_panic(expected = "at most 32 bits")]
    fn out_of_range_bits_rejected() {
        let _ = quantization_noise_rms(33);
    }
}
