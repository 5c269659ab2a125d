//! The allocating per-pixel stage kernels the planned kernels replaced,
//! kept verbatim as the test oracle: every index is recomputed per
//! pixel and every stage allocates its output. Compiled only into test
//! builds (this crate's, and `camj-core`'s DAG oracle, which includes
//! this file by path).

/// The mean over the clamped stencil window anchored at each output
/// pixel.
#[allow(clippy::too_many_arguments)]
pub fn box_stencil(
    input: &[f64],
    (iw, ih, ic): (u32, u32, u32),
    kernel: [u32; 3],
    stride: [u32; 3],
    (ow, oh, oc): (u32, u32, u32),
) -> Vec<f64> {
    assert_eq!(input.len(), iw as usize * ih as usize * ic as usize);
    assert!(kernel.iter().all(|&k| k > 0) && stride.iter().all(|&s| s > 0));
    let mut out = Vec::with_capacity(ow as usize * oh as usize * oc as usize);
    for y in 0..oh {
        for x in 0..ow {
            for c in 0..oc {
                let x0 = (x * stride[0]).min(iw - 1);
                let y0 = (y * stride[1]).min(ih - 1);
                let c0 = (c * stride[2]).min(ic - 1);
                let x1 = (x0 + kernel[0]).min(iw);
                let y1 = (y0 + kernel[1]).min(ih);
                let c1 = (c0 + kernel[2]).min(ic);
                let mut sum = 0.0;
                for wy in y0..y1 {
                    for wx in x0..x1 {
                        for wc in c0..c1 {
                            sum += input[((wy * iw + wx) * ic + wc) as usize];
                        }
                    }
                }
                let count = u64::from(x1 - x0) * u64::from(y1 - y0) * u64::from(c1 - c0);
                out.push(sum / count as f64);
            }
        }
    }
    out
}

/// The per-index mean of aligned operand tensors.
pub fn elementwise_mean(operands: &[&[f64]]) -> Vec<f64> {
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
    (0..len)
        .map(|i| operands.iter().map(|o| o[i]).sum::<f64>() * scale)
        .collect()
}

/// Nearest-neighbour resample between tensor shapes.
pub fn resample_nearest(
    input: &[f64],
    (iw, ih, ic): (u32, u32, u32),
    (ow, oh, oc): (u32, u32, u32),
) -> Vec<f64> {
    assert_eq!(input.len(), iw as usize * ih as usize * ic as usize);
    assert!(ow > 0 && oh > 0 && oc > 0 && iw > 0 && ih > 0 && ic > 0);
    if (iw, ih, ic) == (ow, oh, oc) {
        return input.to_vec();
    }
    let mut out = Vec::with_capacity(ow as usize * oh as usize * oc as usize);
    for y in 0..oh {
        let sy = ((u64::from(y) * u64::from(ih)) / u64::from(oh)) as u32;
        for x in 0..ow {
            let sx = ((u64::from(x) * u64::from(iw)) / u64::from(ow)) as u32;
            for c in 0..oc {
                let sc = ((u64::from(c) * u64::from(ic)) / u64::from(oc)) as u32;
                out.push(input[((sy * iw + sx) * ic + sc) as usize]);
            }
        }
    }
    out
}
