//! Functional execution of digital algorithm stages: the tensor
//! transforms behind the end-to-end frame pipeline.
//!
//! The energy/latency side of this crate treats stages declaratively
//! (shapes, op counts); this module gives the same declarations an
//! *executable* meaning so a simulated frame can flow through the
//! mapped DAG and be judged at the task level. The semantics are
//! deliberately the simplest faithful choice per stage kind:
//!
//! * stencils compute the **window mean** (binning, pooling, and
//!   normalized convolution all reduce to this under the declarative
//!   description, which carries no kernel weights),
//! * element-wise stages average their aligned operands,
//! * DNN/custom stages act as shape adapters (nearest-neighbour
//!   resample) — their arithmetic is not described declaratively, so
//!   the pipeline preserves the signal content and lets the task
//!   metric judge the noise that reached them.
//!
//! A stage's geometry is fixed by its declaration, so the kernels are
//! **planned**: [`Resample`] and [`BoxStencil`] resolve their per-axis
//! index maps and clamped windows once, at construction, and running
//! one is a single pass with no per-pixel index division. Each run
//! writes into a caller-owned buffer (cleared first, so one buffer
//! serves many runs) and can requantize every output value in the same
//! pass ([`Quantizer`]). Results are bit-identical to the per-pixel
//! definitions: windows are summed in the same row, column, channel
//! order and divided by the same count, and a nearest resample only
//! moves values, so quantizing before or after it is the same.
//!
//! Every kernel is a pure slice transform: no RNG, no floats ordered by
//! thread, so functional frames stay byte-identical across thread
//! counts.
//!
//! Tensors are row-major with channels interleaved:
//! `index = (y * width + x) * channels + c`; a [`Shape`] is
//! `(width, height, channels)`.

use crate::quantize::Quantizer;

#[cfg(test)]
mod oracle;

/// A tensor shape, `(width, height, channels)`.
pub type Shape = (u32, u32, u32);

/// The number of values a tensor of `shape` holds.
fn volume((w, h, c): Shape) -> usize {
    w as usize * h as usize * c as usize
}

/// `value`, requantized when a grid is given.
#[inline]
fn snap(requantize: Option<Quantizer>, value: f64) -> f64 {
    match requantize {
        Some(q) => q.apply(value),
        None => value,
    }
}

/// The source index of each of `output` positions along one axis of a
/// nearest-neighbour resample from `input` positions:
/// `⌊o · input / output⌋`, one division per position, not per pixel.
fn nearest_map(input: u32, output: u32) -> impl Iterator<Item = u32> {
    (0..output).map(move |o| (u64::from(o) * u64::from(input) / u64::from(output)) as u32)
}

/// A nearest-neighbour resample between two fixed shapes — the shape
/// adapter for DNN/custom stages (and size-mismatched edges), chosen
/// because integer index arithmetic is exact and thread-independent.
///
/// The per-axis source indices are resolved at construction: a source
/// row per output row, and a source offset within that row per output
/// `(x, c)`. Output rows that read the same source row are copies of
/// the previous one.
#[derive(Debug, Clone, PartialEq)]
pub struct Resample {
    input: Shape,
    output: Shape,
    /// Source row of each output row.
    rows: Vec<u32>,
    /// Offset within a source row of each output `(x, c)`,
    /// `sx · channels + sc`.
    cols: Vec<u32>,
}

impl Resample {
    /// Plans the resample from `input` to `output`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension of either shape is zero.
    #[must_use]
    pub fn new(input: Shape, output: Shape) -> Self {
        let ((iw, ih, ic), (ow, oh, oc)) = (input, output);
        assert!(ow > 0 && oh > 0 && oc > 0 && iw > 0 && ih > 0 && ic > 0);
        let channels: Vec<u32> = nearest_map(ic, oc).collect();
        let cols = nearest_map(iw, ow)
            .flat_map(|sx| channels.iter().map(move |&sc| sx * ic + sc))
            .collect();
        Resample {
            input,
            output,
            rows: nearest_map(ih, oh).collect(),
            cols,
        }
    }

    /// Whether input and output shapes agree (the resample moves
    /// nothing).
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.input == self.output
    }

    /// Resamples `input` into `out` (cleared first), requantizing every
    /// value when `requantize` is given. When every source value of a
    /// row is gathered at least once (no axis of the row shrinks) and
    /// the row grows, each source row is requantized once before the
    /// gather rather than after it — the same values, since quantizing
    /// commutes with moving them.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not hold the planned input shape, or (with
    /// `requantize`) a quantized value is NaN.
    pub fn run(&self, input: &[f64], requantize: Option<Quantizer>, out: &mut Vec<f64>) {
        let ((iw, _, ic), (ow, _, oc)) = (self.input, self.output);
        assert_eq!(input.len(), volume(self.input));
        out.clear();
        out.reserve(volume(self.output));
        let row_len = iw as usize * ic as usize;
        let out_row = self.cols.len();
        let row_copy = (iw, ic) == (ow, oc);
        let before = requantize.filter(|_| ow >= iw && oc >= ic && out_row > row_len);
        let after = requantize.filter(|_| before.is_none());
        let mut staged: Vec<f64> = Vec::new();
        let mut last = None;
        for &sy in &self.rows {
            if last == Some(sy) {
                let start = out.len() - out_row;
                out.extend_from_within(start..);
                continue;
            }
            last = Some(sy);
            let mut src = &input[sy as usize * row_len..][..row_len];
            if let Some(q) = before {
                staged.clear();
                staged.extend(src.iter().map(|&v| q.apply(v)));
                src = &staged;
            }
            if row_copy {
                out.extend(src.iter().map(|&v| snap(after, v)));
            } else {
                out.extend(self.cols.iter().map(|&i| snap(after, src[i as usize])));
            }
        }
    }
}

/// The clamped window `[start, end)` along one axis for each of
/// `output` positions: starts at `o · stride`, clamped inside the
/// input, and spans `kernel` positions, clamped to the input's end
/// (windows never wrap).
fn windows(input: u32, kernel: u32, stride: u32, output: u32) -> impl Iterator<Item = (u32, u32)> {
    (0..output).map(move |o| {
        let start = (u64::from(o) * u64::from(stride)).min(u64::from(input - 1)) as u32;
        (start, (start + kernel).min(input))
    })
}

/// The part of a stencil window inside one input row, for one output
/// `(x, c)`: `pixels` pixels from offset `start` within the row, and
/// `channels` channels of each.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RowWindow {
    start: usize,
    pixels: usize,
    channels: usize,
}

/// The window mean of a declared stencil/binning/pooling stage over
/// fixed shapes, with every output row's and every output
/// `(x, c)`'s clamped window resolved at construction.
///
/// The window for output `(x, y, c)` starts at
/// `(x·stride, y·stride, c·stride)` in the input and spans the kernel
/// shape, clamped to the input bounds. Its values are summed row by
/// row, column by column, channel by channel, and divided by the
/// window's size.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxStencil {
    input: Shape,
    output: Shape,
    /// The kernel's width and channel depth: no row window is larger.
    kernel: (usize, usize),
    /// Input rows `[start, end)` of each output row's windows.
    rows: Vec<(u32, u32)>,
    /// The row window of each output `(x, c)`.
    cols: Vec<RowWindow>,
}

impl BoxStencil {
    /// Plans the stencil.
    ///
    /// # Panics
    ///
    /// Panics if an input dimension, kernel, or stride component is
    /// zero.
    #[must_use]
    pub fn new(input: Shape, kernel: [u32; 3], stride: [u32; 3], output: Shape) -> Self {
        let ((iw, ih, ic), (ow, oh, oc)) = (input, output);
        assert!(iw > 0 && ih > 0 && ic > 0);
        assert!(kernel.iter().all(|&k| k > 0) && stride.iter().all(|&s| s > 0));
        let channels: Vec<(u32, u32)> = windows(ic, kernel[2], stride[2], oc).collect();
        let cols = windows(iw, kernel[0], stride[0], ow)
            .flat_map(|(x0, x1)| {
                channels.iter().map(move |&(c0, c1)| RowWindow {
                    start: x0 as usize * ic as usize + c0 as usize,
                    pixels: (x1 - x0) as usize,
                    channels: (c1 - c0) as usize,
                })
            })
            .collect();
        BoxStencil {
            input,
            output,
            kernel: (kernel[0] as usize, kernel[2] as usize),
            rows: windows(ih, kernel[1], stride[1], oh).collect(),
            cols,
        }
    }

    /// Writes the window means of `input` into `out` (cleared first),
    /// requantizing each when `requantize` is given.
    ///
    /// One output row at a time, every window row adds its values into
    /// the row's running sums, column offset by column offset and
    /// channel by channel: each output still sums its window in row,
    /// column, channel order, while the inner loop runs across the
    /// whole output row.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not hold the planned input shape, or (with
    /// `requantize`) a mean is NaN.
    pub fn run(&self, input: &[f64], requantize: Option<Quantizer>, out: &mut Vec<f64>) {
        let (iw, _, ic) = self.input;
        assert_eq!(input.len(), volume(self.input));
        out.clear();
        out.reserve(volume(self.output));
        let (ic, row_len) = (ic as usize, iw as usize * ic as usize);
        let mut sums = vec![0.0_f64; self.cols.len()];
        for &(y0, y1) in &self.rows {
            sums.fill(0.0);
            for row in input[y0 as usize * row_len..y1 as usize * row_len].chunks_exact(row_len) {
                for pixel in 0..self.kernel.0 {
                    for channel in 0..self.kernel.1 {
                        let offset = pixel * ic + channel;
                        for (sum, w) in sums.iter_mut().zip(&self.cols) {
                            if pixel < w.pixels && channel < w.channels {
                                *sum += row[w.start + offset];
                            }
                        }
                    }
                }
            }
            let window_rows = (y1 - y0) as u64;
            out.extend(sums.iter().zip(&self.cols).map(|(sum, w)| {
                let count = w.pixels as u64 * window_rows * w.channels as u64;
                snap(requantize, sum / count as f64)
            }));
        }
    }
}

/// The per-index mean of aligned operand tensors, written into `out`
/// (cleared first) and requantized when `requantize` is given: one
/// deterministic execution of a declared element-wise stage. With
/// several operands (e.g. frame subtraction's current + previous frame
/// at steady state) it is the unbiased combination that keeps the
/// signal in `[0, 1]`. Operands are summed in order and scaled by
/// `1 / operands`.
///
/// # Panics
///
/// Panics if `operands` is empty, the slices disagree in length, or
/// (with `requantize`) a mean is NaN.
pub fn elementwise_mean(operands: &[&[f64]], requantize: Option<Quantizer>, out: &mut Vec<f64>) {
    assert!(
        !operands.is_empty(),
        "element-wise needs at least 1 operand"
    );
    let len = operands[0].len();
    assert!(
        operands.iter().all(|o| o.len() == len),
        "element-wise operands must be aligned"
    );
    let scale = 1.0 / operands.len() as f64;
    out.clear();
    out.extend((0..len).map(|i| {
        snap(
            requantize,
            operands.iter().map(|o| o[i]).sum::<f64>() * scale,
        )
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stencil(input: &[f64], i: Shape, kernel: [u32; 3], stride: [u32; 3], o: Shape) -> Vec<f64> {
        let mut out = Vec::new();
        BoxStencil::new(i, kernel, stride, o).run(input, None, &mut out);
        assert_eq!(out, oracle::box_stencil(input, i, kernel, stride, o));
        out
    }

    fn resample(input: &[f64], i: Shape, o: Shape) -> Vec<f64> {
        let mut out = Vec::new();
        Resample::new(i, o).run(input, None, &mut out);
        assert_eq!(out, oracle::resample_nearest(input, i, o));
        out
    }

    /// Deterministic pseudo-random tensor values: uniform in `[0, 1)`,
    /// with the rails, signed zero, and 8-bit grid points mixed in.
    fn tensor(len: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                match state >> 61 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => 1.0,
                    3 => f64::from((state >> 40) as u32 % 257) / 256.0,
                    _ => (state >> 11) as f64 / (1u64 << 53) as f64,
                }
            })
            .collect()
    }

    fn bits_of(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    proptest::proptest! {
        /// Every planned kernel is bit-identical to its per-pixel
        /// oracle, without and with the fused requantization, over
        /// random geometry: 1–3 channels, kernels unlike their strides,
        /// windows clamped at every edge, up- and down-resampling on
        /// each axis.
        #[test]
        fn planned_kernels_match_the_per_pixel_oracle(
            iw in 1u32..12, ih in 1u32..12, ic in 1u32..4,
            ow in 1u32..14, oh in 1u32..14, oc in 1u32..4,
            kx in 1u32..4, ky in 1u32..4, kc in 1u32..4,
            sx in 1u32..4, sy in 1u32..4, sc in 1u32..3,
            bits in 1u32..17,
            seed in 0u64..1 << 40,
        ) {
            let (i, o) = ((iw, ih, ic), (ow, oh, oc));
            let input = tensor(volume(i), seed);
            let q = Quantizer::new(bits);
            let quantized = |values: Vec<f64>| -> Vec<u64> {
                bits_of(&values.iter().map(|&v| q.apply(v)).collect::<Vec<_>>())
            };
            let mut out = Vec::new();

            let stencil = BoxStencil::new(i, [kx, ky, kc], [sx, sy, sc], o);
            let expected = oracle::box_stencil(&input, i, [kx, ky, kc], [sx, sy, sc], o);
            stencil.run(&input, None, &mut out);
            proptest::prop_assert_eq!(bits_of(&out), bits_of(&expected));
            stencil.run(&input, Some(q), &mut out);
            proptest::prop_assert_eq!(bits_of(&out), quantized(expected));

            let resample = Resample::new(i, o);
            let expected = oracle::resample_nearest(&input, i, o);
            resample.run(&input, None, &mut out);
            proptest::prop_assert_eq!(bits_of(&out), bits_of(&expected));
            resample.run(&input, Some(q), &mut out);
            proptest::prop_assert_eq!(bits_of(&out), quantized(expected));

            let other = tensor(volume(i), !seed);
            let expected = oracle::elementwise_mean(&[&input, &other]);
            elementwise_mean(&[&input, &other], None, &mut out);
            proptest::prop_assert_eq!(bits_of(&out), bits_of(&expected));
            elementwise_mean(&[&input, &other], Some(q), &mut out);
            proptest::prop_assert_eq!(bits_of(&out), quantized(expected));
        }
    }

    #[test]
    fn binning_averages_disjoint_windows() {
        // 4x2 input, 2x2 binning -> 2x1.
        let input = [0.0, 1.0, 0.5, 0.5, 1.0, 0.0, 0.5, 0.5];
        let out = stencil(&input, (4, 2, 1), [2, 2, 1], [2, 2, 1], (2, 1, 1));
        assert_eq!(out, vec![0.5, 0.5]);
    }

    #[test]
    fn stencil_windows_clamp_at_edges() {
        // 3x1, 3-wide kernel, stride 1: last window clamps to 1 pixel.
        let input = [0.0, 0.3, 0.9];
        let out = stencil(&input, (3, 1, 1), [3, 1, 1], [1, 1, 1], (3, 1, 1));
        assert!((out[0] - 0.4).abs() < 1e-12);
        assert!((out[1] - 0.6).abs() < 1e-12);
        assert!((out[2] - 0.9).abs() < 1e-12);
    }

    #[test]
    fn identity_stencil_is_identity() {
        let input = [0.1, 0.2, 0.3, 0.4];
        let out = stencil(&input, (2, 2, 1), [1, 1, 1], [1, 1, 1], (2, 2, 1));
        assert_eq!(out, input.to_vec());
    }

    #[test]
    fn partial_channel_windows_match_the_oracle() {
        let input: Vec<f64> = (0..5 * 3 * 3).map(|i| f64::from(i) / 45.0).collect();
        stencil(&input, (5, 3, 3), [2, 3, 2], [3, 1, 1], (3, 4, 4));
        stencil(&input, (5, 3, 3), [3, 1, 3], [1, 2, 3], (6, 2, 1));
    }

    #[test]
    fn elementwise_mean_of_one_operand_is_identity() {
        let a = [0.25, 0.75, -0.0];
        let mut out = Vec::new();
        elementwise_mean(&[&a], None, &mut out);
        assert_eq!(out, oracle::elementwise_mean(&[&a]));
        assert!(out.iter().zip(&a).all(|(o, a)| o.to_bits() == a.to_bits()));
        let b = [0.75, 0.25, 0.5];
        elementwise_mean(&[&a, &b], None, &mut out);
        assert_eq!(out, vec![0.5, 0.5, 0.25]);
    }

    #[test]
    fn resample_identity_and_upsample() {
        let input = [0.1, 0.9];
        assert_eq!(resample(&input, (2, 1, 1), (2, 1, 1)), input.to_vec());
        assert_eq!(
            resample(&input, (2, 1, 1), (4, 1, 1)),
            vec![0.1, 0.1, 0.9, 0.9]
        );
        // Downsample picks the nearest source sample.
        let wide = [0.0, 0.25, 0.5, 0.75];
        assert_eq!(resample(&wide, (4, 1, 1), (2, 1, 1)), vec![0.0, 0.5]);
        // Rows and channels both resample; repeated rows are copies.
        let grid: Vec<f64> = (0..3 * 2 * 2).map(|i| f64::from(i) / 12.0).collect();
        resample(&grid, (3, 2, 2), (5, 5, 3));
        resample(&grid, (3, 2, 2), (2, 7, 1));
    }

    #[test]
    fn requantizing_before_or_after_the_gather_agrees() {
        let input: Vec<f64> = (0..4 * 3).map(|i| f64::from(i) / 11.0 + 0.013).collect();
        let q = Quantizer::new(3);
        for out_shape in [(8, 5, 2), (2, 5, 1), (4, 3, 1), (4, 6, 1)] {
            let plan = Resample::new((4, 3, 1), out_shape);
            let mut fused = Vec::new();
            plan.run(&input, Some(q), &mut fused);
            let mut plain = Vec::new();
            plan.run(&input, None, &mut plain);
            let after: Vec<f64> = plain.iter().map(|&v| q.apply(v)).collect();
            assert_eq!(fused, after, "{out_shape:?}");
        }
    }
}
